#include "obs/trace.h"

#include <ctime>

#include "obs/trace_buffer.h"

namespace cbwt::obs {

namespace {

/// CPU consumed by the calling thread alone. std::clock() cannot answer
/// this — POSIX pins it to *process* CPU — hence the explicit clockid.
double thread_cpu_seconds_now() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

ScopedSpan::ScopedSpan(Registry* registry, std::string_view name) : registry_(registry) {
  if (registry_ == nullptr) return;
  name_ = name;
  auto context = registry_->begin_span(name_);
  parent_ = std::move(context.parent);
  depth_ = context.depth;
  if (TraceBuffer* trace = registry_->trace_buffer()) {
    trace->emit(TracePhase::kBegin, name_);
  }
  wall_begin_ = std::chrono::steady_clock::now();
  process_cpu_begin_ = std::clock();
  thread_cpu_begin_ = thread_cpu_seconds_now();
}

ScopedSpan::~ScopedSpan() {
  if (registry_ == nullptr) return;
  if (TraceBuffer* trace = registry_->trace_buffer()) {
    trace->emit(TracePhase::kEnd, name_, items_);
  }
  SpanRecord record;
  record.name = std::move(name_);
  record.parent = std::move(parent_);
  record.depth = depth_;
  record.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin_)
          .count();
  record.process_cpu_seconds = static_cast<double>(std::clock() - process_cpu_begin_) /
                               static_cast<double>(CLOCKS_PER_SEC);
  record.thread_cpu_seconds = thread_cpu_seconds_now() - thread_cpu_begin_;
  record.items = items_;
  registry_->end_span(std::move(record));
}

}  // namespace cbwt::obs
