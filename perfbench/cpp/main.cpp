// Benchmark driver: runs one workload pass (or, traced, the per-layer
// budget of every substrate) and prints one JSON line with the metrics,
// output-check violations, tuple counts and build provenance.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1 --scratch DIR
//   perfbench_driver --selftest
#include <unistd.h>

#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "support.hpp"

namespace {

using perfbench::PassOptions;
using perfbench::Result;

#if defined(POSG_DCHECKS_ENABLED)
constexpr bool kDchecks = true;
#else
constexpr bool kDchecks = false;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::string json_string(const std::string& text) {
  std::ostringstream out;
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << "\\u" << std::hex << std::setw(4) << std::setfill('0') << int(c) << std::dec;
    } else {
      out << c;
    }
  }
  out << '"';
  return out.str();
}

/// Notes that are already JSON objects are embedded as such.
std::string json_note(const std::string& text) {
  return !text.empty() && text.front() == '{' ? text : json_string(text);
}

void print_result(const Result& result) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"provenance\":{\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"dchecks\":" << (kDchecks ? "true" : "false")
      << ",\"sanitizer\":" << (kSanitized ? "true" : "false")
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << "},\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"violations\":[";
  for (std::size_t i = 0; i < result.violations.size(); ++i) {
    out << (i ? "," : "") << json_string(result.violations[i]);
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out << (first ? "" : ",") << json_string(name) << ":{\"value\":" << metric.value
        << ",\"unit\":" << json_string(metric.unit) << '}';
    first = false;
  }
  out << "},\"notes\":{";
  first = true;
  for (const auto& [name, note] : result.notes) {
    out << (first ? "" : ",") << json_string(name) << ':' << json_note(note);
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

using PassFn = Result (*)(const PassOptions&);

/// The traced run: the per-layer list spans all three substrates, so a
/// traced invocation runs every substrate, each first untraced and then
/// traced (the difference is the tracing overhead), and reports only the
/// per-layer metrics.
struct Workload {
  const char* name;
  const char* tag;  // prefix of its per-layer budget metrics
  PassFn pass;
};
constexpr Workload kWorkloads[] = {{"sim-k50-drift", "sim", &perfbench::run_sim},
                                   {"engine-k3-openloop", "engine", &perfbench::run_engine},
                                   {"ipc-k3-flood", "ipc", &perfbench::run_ipc}};

Result traced_budget(const PassOptions& options) {
  Result out;
  for (const Workload& substrate : kWorkloads) {
    PassOptions plain = options;
    plain.traced = false;
    plain.seconds = options.seconds / 6.0;
    PassOptions traced = plain;
    traced.traced = true;
    const Result base = substrate.pass(plain);
    const Result with = substrate.pass(traced);
    // End-to-end names carry no dot; everything else is a layer metric.
    // Those both passes report (counts, tails, lateness) keep the untraced
    // value; the traced pass adds the span-based ones.
    for (const Result* pass : {&base, &with}) {
      for (const auto& [name, metric] : pass->metrics) {
        if (name.find('.') != std::string::npos) {
          out.metrics.emplace(name, metric);
        }
      }
      for (const std::string& violation : pass->violations) {
        out.violations.push_back(std::string(substrate.name) + ": " + violation);
      }
      out.attempted += pass->attempted;
      out.failed += pass->failed;
    }
    out.notes.insert(with.notes.begin(), with.notes.end());
    out.set(std::string("trace.") + substrate.tag + "_overhead_pct",
            100.0 * (with.metrics.at("cpu_us_per_tuple").value /
                         base.metrics.at("cpu_us_per_tuple").value -
                     1.0),
            "%");
  }
  return out;
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1"
               " [--scratch DIR] | --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || kDchecks || kSanitized) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build (dchecks=" << kDchecks << ", sanitizer=" << kSanitized
              << "); numbers come only from Release without DCHECKs or sanitizers\n";
    return 3;
  }
  std::string workload;
  PassOptions options;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      return perfbench::run_selftests() == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        traced = value == "1";
      } else if (arg == "--scratch") {
        options.scratch_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const Workload* selected = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) {
      selected = &candidate;
    }
  }
  if (options.seconds <= 0.0 || selected == nullptr) {
    return usage();
  }
  try {
    Result result;
    if (traced) {
      options.trace_path = options.scratch_dir + "/trace-" + workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
      ::unlink(options.trace_path.c_str());
      result = traced_budget(options);
      result.notes["trace.file"] = options.trace_path;
    } else {
      result = selected->pass(options);
    }
    print_result(result);
    return result.violations.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
