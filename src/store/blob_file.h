// The variable-length half of the columnar pair: a blob arena file.
// Fixed-width record files store a BlobRef (offset, length) where a
// struct held a string; the referenced bytes live in a sibling blob
// file and read back zero-copy as std::string_view into the mapping —
// the on-disk twin of util::Arena's intern-once/view-forever idiom.
// A writer either interns (deduplicates repeated payloads: registrable
// domains repeat heavily, so interning is also the compression) or
// appends bytes as they are, for a caller that already holds its text
// once, in one buffer, and derives the refs from their offsets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "store/bytes.h"
#include "store/mapped_file.h"
#include "store/superblock.h"
#include "util/transparent_hash.h"

namespace cbwt::store {

/// Handle to one interned byte run inside a blob file. 12 bytes on
/// disk: offset u64 + length u32 (a single blob is capped at 4 GiB).
struct BlobRef {
  std::uint64_t offset = 0;
  std::uint32_t length = 0;

  friend bool operator==(const BlobRef&, const BlobRef&) = default;
};

/// Bytes a BlobRef occupies inside a fixed-width record.
inline constexpr std::size_t kBlobRefSize = 12;

inline void put_blob_ref(std::uint8_t* out, const BlobRef& ref) noexcept {
  put_u64(out, ref.offset);
  put_u32(out + 8, ref.length);
}

[[nodiscard]] inline BlobRef get_blob_ref(const std::uint8_t* in) noexcept {
  return {get_u64(in), get_u32(in + 8)};
}

class BlobFileWriter {
 public:
  explicit BlobFileWriter(const std::string& path);

  BlobFileWriter(BlobFileWriter&&) noexcept = default;
  BlobFileWriter& operator=(BlobFileWriter&&) noexcept = default;
  ~BlobFileWriter();

  /// Interns `text` and returns its handle. Identical payloads return
  /// the same handle (content-addressed via an in-memory map that lives
  /// only for the writer's lifetime).
  [[nodiscard]] BlobRef intern(std::string_view text);

  /// Writes `bytes` (any length) at the end of the payload, without
  /// looking them up, indexing or counting them, and returns the payload
  /// offset of their first byte. A payload written only this way has a
  /// blob count of 0, whatever runs it was written in.
  std::uint64_t append(std::string_view bytes);

  /// Distinct blobs interned (appended bytes are not counted).
  [[nodiscard]] std::uint64_t size() const noexcept { return count_; }

  /// Payload bytes written.
  [[nodiscard]] std::uint64_t bytes_used() const noexcept { return used_; }

  /// Stamps the superblock, trims and syncs. Idempotent.
  void finalize();

  [[nodiscard]] const std::string& path() const noexcept { return file_.path(); }

 private:
  MappedFile file_;
  util::StringMap<BlobRef> interned_;  ///< intern()'s index; append() skips it
  std::uint64_t count_ = 0;
  std::uint64_t used_ = 0;
  bool finalized_ = false;
};

class BlobFileReader {
 public:
  /// Opens and validates `path` (superblock, geometry, checksum);
  /// throws StoreError on any mismatch.
  explicit BlobFileReader(const std::string& path);

  BlobFileReader(BlobFileReader&&) noexcept = default;
  BlobFileReader& operator=(BlobFileReader&&) noexcept = default;

  /// Zero-copy view of one blob, valid for the reader's lifetime.
  /// Throws StoreError when the ref points outside the payload (refs
  /// come from a sibling record file, which may be corrupt or mismatched
  /// independently of this file's own checksum).
  [[nodiscard]] std::string_view view(const BlobRef& ref) const;

  /// The whole payload, zero-copy; view(ref) is a slice of it.
  [[nodiscard]] std::string_view payload() const noexcept {
    return {reinterpret_cast<const char*>(file_.data() + kSuperblockSize), payload_};
  }

  [[nodiscard]] std::uint64_t size() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept { return payload_; }

 private:
  MappedFile file_;
  std::uint64_t count_ = 0;
  std::uint64_t payload_ = 0;
};

}  // namespace cbwt::store
