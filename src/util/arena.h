// Chunked byte arena for compile-once data structures: interned strings
// stay valid for the arena's lifetime (chunks are never reallocated or
// freed until clear()/destruction), so views handed out by intern() are
// stable keys for long-lived indexes. Not thread-safe; the intended use
// is build-the-index-once, read-concurrently-forever.
//
// The filled bytes of the chunks, in allocation order, concatenate to
// every interned byte in intern() order: the arena's flat image, which
// is what a blob file stores. offset_of() maps a view back to its
// position in that image.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace cbwt::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes) noexcept
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}

  /// Copies `text` into arena storage and returns a stable view of it.
  /// Oversized strings get a dedicated chunk, so any length works.
  [[nodiscard]] std::string_view intern(std::string_view text) {
    if (text.empty()) return {};
    char* dst = allocate(text.size());
    std::memcpy(dst, text.data(), text.size());
    return {dst, text.size()};
  }

  /// Total bytes handed out by intern()/allocate (not chunk capacity).
  [[nodiscard]] std::size_t bytes_used() const noexcept { return used_; }

  /// Calls fn(std::string_view) once per chunk with its filled bytes, in
  /// allocation order; the runs concatenate to the flat image.
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    for (const Chunk& chunk : chunks_) {
      if (chunk.used > 0) fn(std::string_view(chunk.bytes.get(), chunk.used));
    }
  }

  /// Offset of `view` in the flat image, or nullopt when `view` is empty
  /// or does not lie inside bytes this arena handed out. O(log chunks).
  [[nodiscard]] std::optional<std::uint64_t> offset_of(std::string_view view) const {
    if (view.empty()) return std::nullopt;
    // The last chunk (in address order) that starts at or before the view.
    const auto it = first_chunk_after(view.data());
    if (it == by_address_.begin()) return std::nullopt;
    const Chunk& chunk = chunks_[*std::prev(it)];
    const auto start = static_cast<std::size_t>(view.data() - chunk.bytes.get());
    if (start >= chunk.used || chunk.used - start < view.size()) return std::nullopt;
    return chunk.base + start;
  }

  /// Drops every chunk; all previously returned views become dangling.
  void clear() noexcept {
    chunks_.clear();
    by_address_.clear();
    used_ = 0;
  }

 private:
  struct Chunk {
    std::unique_ptr<char[]> bytes;
    std::size_t capacity = 0;
    std::size_t used = 0;
    std::uint64_t base = 0;  ///< offset of bytes[0] in the flat image
  };

  /// The first by_address_ entry whose chunk starts after `p`.
  [[nodiscard]] std::vector<std::size_t>::const_iterator first_chunk_after(
      const char* p) const {
    return std::upper_bound(by_address_.begin(), by_address_.end(), p,
                            [this](const char* q, std::size_t i) {
                              return std::less<const char*>()(q, chunks_[i].bytes.get());
                            });
  }

  [[nodiscard]] char* allocate(std::size_t bytes) {
    if (chunks_.empty() || chunks_.back().used + bytes > chunks_.back().capacity) {
      const std::size_t size = bytes > chunk_bytes_ ? bytes : chunk_bytes_;
      // Not value-initialised: only bytes written by intern() are read.
      chunks_.push_back({std::unique_ptr<char[]>(new char[size]), size, 0, used_});
      by_address_.insert(first_chunk_after(chunks_.back().bytes.get()), chunks_.size() - 1);
    }
    Chunk& chunk = chunks_.back();
    char* out = chunk.bytes.get() + chunk.used;
    chunk.used += bytes;
    used_ += bytes;
    return out;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::vector<std::size_t> by_address_;  ///< chunk indices, ascending start address
  std::size_t used_ = 0;
};

}  // namespace cbwt::util
