#include "obs/metrics_registry.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace posg::obs {

namespace {

constexpr const char* kSchemaTag = "posg-metrics/1";

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double v) {
  // %.17g round-trips every finite double; JSON has no inf/nan, so those
  // degrade to 0 (snapshots should never contain them anyway).
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string Snapshot::to_json() const {
  std::string out;
  out.reserve(256);
  out += "{\"schema\":";
  append_escaped(out, kSchemaTag);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    append_escaped(out, name);
    out.push_back(':');
    append_u64(out, v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    append_escaped(out, name);
    out.push_back(':');
    append_double(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    append_escaped(out, name);
    out += ":{\"count\":";
    append_u64(out, h.count);
    out += ",\"sum\":";
    append_u64(out, h.sum);
    out += ",\"buckets\":{";
    bool first_bucket = true;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) {
        continue;  // sparse: zero buckets are implied
      }
      if (!first_bucket) {
        out.push_back(',');
      }
      first_bucket = false;
      append_escaped(out, std::to_string(i));
      out.push_back(':');
      append_u64(out, h.buckets[i]);
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::check_name_free(const std::string& name, int kind) const {
  // REQUIRES(mutex_) — see the header declaration.
  if (kind != 0 && (counters_.count(name) != 0 || counter_fns_.count(name) != 0)) {
    throw std::invalid_argument("MetricsRegistry: '" + name + "' already registered as counter");
  }
  if (kind != 1 && (gauges_.count(name) != 0 || gauge_fns_.count(name) != 0)) {
    throw std::invalid_argument("MetricsRegistry: '" + name + "' already registered as gauge");
  }
  if (kind != 2 && histograms_.count(name) != 0) {
    throw std::invalid_argument("MetricsRegistry: '" + name + "' already registered as histogram");
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    check_name_free(name, 0);
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    check_name_free(name, 1);
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    check_name_free(name, 2);
    it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

void MetricsRegistry::counter_fn(const std::string& name, std::function<std::uint64_t()> fn) {
  const MutexLock lock(mutex_);
  if (counter_fns_.count(name) == 0) {
    check_name_free(name, 0);
  }
  counter_fns_[name] = std::move(fn);
}

void MetricsRegistry::gauge_fn(const std::string& name, std::function<double()> fn) {
  const MutexLock lock(mutex_);
  if (gauge_fns_.count(name) == 0) {
    check_name_free(name, 1);
  }
  gauge_fns_[name] = std::move(fn);
}

Snapshot MetricsRegistry::snapshot() const {
  const MutexLock lock(mutex_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters[name] = c->value();
  }
  for (const auto& [name, fn] : counter_fns_) {
    snap.counters[name] = fn();
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = g->value();
  }
  for (const auto& [name, fn] : gauge_fns_) {
    snap.gauges[name] = fn();
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.buckets.resize(Histogram::kBuckets);
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      hs.buckets[i] = h->bucket(i);
    }
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

}  // namespace posg::obs
