#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

/// Stream trace record/replay.
///
/// Lets users capture an item stream once (their production trace, a
/// synthetic draw, the tweet synthesizer's output) and replay it through
/// the simulator, the engine, or any scheduler — the "bring your own
/// trace" path (`scheduler_zoo --save-trace` / `--trace`,
/// `ExperimentConfig::trace_path`). One binary format (`.trace`): magic
/// 'PTRC' | u32 version | u64 count | items; compact and exact.
namespace posg::workload {

/// Writes the stream in the compact binary format. Throws
/// std::runtime_error when the file cannot be written.
void save_trace(const std::string& path, const std::vector<common::Item>& stream);

/// Reads a binary trace. Throws std::invalid_argument on a corrupt or
/// truncated file, std::runtime_error when the file cannot be opened.
std::vector<common::Item> load_trace(const std::string& path);

}  // namespace posg::workload
