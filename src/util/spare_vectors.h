// A free list of vectors that pool workers fill, hand on and refill.
#pragma once

#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace cbwt::util {

/// Vectors a stage is done with, cleared and kept for the next task to
/// refill. A stage whose tasks each fill a multi-megabyte buffer then
/// allocates only as many buffers as are in use at once, instead of
/// freeing a fresh one per task into whichever worker's malloc arena,
/// where the freed memory stays resident. Safe from many threads.
template <typename T>
class SpareVectors {
 public:
  /// A spare (empty, capacity kept), or a new empty vector if none is left.
  [[nodiscard]] std::vector<T> take() CBWT_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (spare_.empty()) return {};
    std::vector<T> vector = std::move(spare_.back());
    spare_.pop_back();
    return vector;
  }

  /// Clears `vector` and keeps it for a later take().
  void give(std::vector<T>&& vector) CBWT_EXCLUDES(mutex_) {
    vector.clear();
    MutexLock lock(mutex_);
    spare_.push_back(std::move(vector));
  }

 private:
  Mutex mutex_;
  std::vector<std::vector<T>> spare_ CBWT_GUARDED_BY(mutex_);
};

}  // namespace cbwt::util
