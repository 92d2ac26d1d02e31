// Stage tracing: ScopedSpan wraps one pipeline stage and records a
// SpanRecord (wall time, process + thread CPU time, item count, parent
// stage) into the registry on scope exit. A null registry makes the
// span a complete no-op, so instrumented stages cost one null check
// when observability is off.
//
// Spans nest through the registry's span stack; open/close must be LIFO
// per registry, which holds as long as spans are opened on the
// pipeline-driving thread (the Study call path). Worker threads never
// open spans — they emit flat begin/end events into the flight recorder
// (obs::ScopedTrace, trace_buffer.h) instead.
//
// When the registry has a TraceBuffer armed, every span additionally
// emits a begin/end event pair so main-thread stages appear on the
// Chrome trace timeline alongside the worker events.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace cbwt::obs {

class ScopedSpan {
 public:
  /// Opens the span; `registry == nullptr` disables it entirely.
  ScopedSpan(Registry* registry, std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Stage-defined item count (requests classified, records emitted...).
  void set_items(std::uint64_t items) noexcept { items_ = items; }
  void add_items(std::uint64_t items) noexcept { items_ += items; }

 private:
  Registry* registry_;
  std::string name_;
  std::string parent_;
  std::uint64_t depth_ = 0;
  std::uint64_t items_ = 0;
  std::chrono::steady_clock::time_point wall_begin_{};
  std::clock_t process_cpu_begin_{};
  double thread_cpu_begin_ = 0.0;
};

}  // namespace cbwt::obs
