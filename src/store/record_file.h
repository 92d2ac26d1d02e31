// Append-only columnar record files: the store's MemoryMappedVector.
// A RecordFileWriter<Codec> encodes fixed-width records straight into a
// growing shared mapping behind a superblock; finalize() stamps the
// header (count, payload length, checksum) and trims the file. A
// RecordFileReader<Codec> validates the header end to end (magic,
// version, kind, geometry, checksum) before handing out records, and
// streams them back in bounded chunks.
//
// A Codec turns structs into portable big-endian bytes:
//
//   struct MyCodec {
//     using value_type = My;
//     static constexpr std::size_t kRecordSize = ...;   // bytes per record
//     static constexpr std::uint16_t kKind = ...;       // store::RecordKind tag
//     static void encode(const My&, std::uint8_t* out); // exactly kRecordSize
//     static std::optional<My> decode(const std::uint8_t* in);
//   };
//
// decode returning nullopt on a checksum-valid file means the file was
// written by something else entirely; readers surface that as
// StoreError rather than yielding garbage structs.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "store/bytes.h"
#include "store/mapped_file.h"
#include "store/superblock.h"
#include "util/contract.h"
#include "util/fnv1a.h"

namespace cbwt::store {

template <typename C>
concept RecordCodec = requires(const typename C::value_type& value,
                               const std::uint8_t* in, std::uint8_t* out) {
  { C::kRecordSize } -> std::convertible_to<std::size_t>;
  { C::kKind } -> std::convertible_to<std::uint16_t>;
  C::encode(value, out);
  { C::decode(in) } -> std::same_as<std::optional<typename C::value_type>>;
};

/// Records per chunk the streaming readers decode at a time; at 64Ki
/// records the decode buffer stays a few MB for every codec in the
/// tree, which is the store's resident-memory unit.
inline constexpr std::size_t kDefaultChunkRecords = 64 * 1024;

/// What one checksum_payload pass did, for the store I/O metrics.
struct ChecksumStats {
  std::uint64_t windows = 0;        ///< 8 MiB hash windows processed
  std::uint64_t pages_dropped = 0;  ///< 4 KiB pages evicted from RSS
};

/// FNV-1a over the payload of `file` in bounded windows, dropping each
/// window from the resident set after hashing — validating a multi-GB
/// file at open never holds more than one window resident.
inline std::uint64_t checksum_payload(const MappedFile& file, std::size_t payload,
                                      ChecksumStats* stats = nullptr) {
  constexpr std::size_t kWindowBytes = 8 << 20;
  std::uint64_t checksum = util::kFnv1aOffset;
  for (std::size_t offset = 0; offset < payload; offset += kWindowBytes) {
    const std::size_t n = std::min(kWindowBytes, payload - offset);
    checksum = util::fnv1a({file.data() + kSuperblockSize + offset, n}, checksum);
    file.drop_range(kSuperblockSize + offset, n);
    if (stats != nullptr) {
      ++stats->windows;
      stats->pages_dropped += (n + 4095) / 4096;
    }
  }
  return checksum;
}

template <typename Codec>
  requires RecordCodec<Codec>
class RecordFileWriter {
 public:
  using value_type = typename Codec::value_type;

  /// `registry` (optional, not owned) receives the cbwt_store_* I/O
  /// counters at finalize time; metrics never alter what hits the disk.
  /// The payload FNV-1a is folded append by append, while the bytes are
  /// still cache-hot, so finalize stamps the superblock without
  /// re-reading the file (FNV-1a is a sequential fold and records are
  /// appended strictly in order).
  explicit RecordFileWriter(const std::string& path, obs::Registry* registry = nullptr)
      : file_(MappedFile::create(path, kInitialBytes)) {
    if (registry != nullptr) {
      bytes_written_ = &registry->counter("cbwt_store_bytes_written_total");
      records_written_ = &registry->counter("cbwt_store_records_written_total");
      files_finalized_ = &registry->counter("cbwt_store_files_finalized_total");
    }
  }

  RecordFileWriter(RecordFileWriter&&) noexcept = default;
  RecordFileWriter& operator=(RecordFileWriter&&) noexcept = default;

  ~RecordFileWriter() {
    // Abandoned writers (exception unwind) leave a file without a valid
    // superblock behind — readers reject it, which is the safe failure.
    if (file_.is_open() && !finalized_) {
      try {
        finalize();
      } catch (...) {  // NOLINT(bugprone-empty-catch): dtor must not throw
      }
    }
  }

  void append(const value_type& record) {
    const std::size_t offset = reserve_record();
    Codec::encode(record, file_.data() + offset);
    commit_record(offset);
  }

  void append(std::span<const value_type> records) {
    for (const auto& record : records) append(record);
  }

  /// Appends one pre-encoded record image (exactly kRecordSize bytes):
  /// the zero-re-encode path for producers that already hold wire-ready
  /// bytes (the join's spill pass builds its flow pages in place and
  /// hands the sealed images here). Byte-for-byte equivalent to
  /// append() of the decoded record.
  void append_encoded(std::span<const std::uint8_t> bytes) {
    CBWT_EXPECTS(bytes.size() == Codec::kRecordSize);
    const std::size_t offset = reserve_record();
    std::memcpy(file_.data() + offset, bytes.data(), Codec::kRecordSize);
    commit_record(offset);
  }

  /// Records appended so far.
  [[nodiscard]] std::uint64_t size() const noexcept { return count_; }

  /// Stamps the superblock (count, payload, checksum), trims the file
  /// to its exact length and syncs everything to disk. Idempotent.
  void finalize() {
    if (finalized_) return;
    const std::size_t payload = count_ * Codec::kRecordSize;
    Superblock block;
    block.kind = static_cast<RecordKind>(Codec::kKind);
    block.record_size = static_cast<std::uint32_t>(Codec::kRecordSize);
    block.record_count = count_;
    block.payload_bytes = payload;
    block.checksum = running_checksum_;
    encode_superblock(block, {file_.data(), kSuperblockSize});
    file_.sync();
    file_.truncate_to(kSuperblockSize + payload);
    finalized_ = true;
    // Flushed once per file, not per append: the writer is single-
    // threaded, so local accumulation is free and the counters stay off
    // the append hot path.
    if (files_finalized_ != nullptr) {
      bytes_written_->add(kSuperblockSize + payload);
      records_written_->add(count_);
      files_finalized_->add(1);
    }
  }

  [[nodiscard]] const std::string& path() const noexcept { return file_.path(); }

 private:
  static constexpr std::size_t kInitialBytes = 1 << 20;
  /// Payload bytes between RSS-bounding flushes of the written prefix:
  /// each open writer keeps at most this much of its tail resident, and
  /// the join's spill pass keeps one writer per partition open.
  static constexpr std::size_t kFlushBytes = 2 << 20;

  /// Grows the mapping if needed and returns the next record's offset.
  [[nodiscard]] std::size_t reserve_record() {
    CBWT_EXPECTS(!finalized_);
    const std::size_t offset = kSuperblockSize + count_ * Codec::kRecordSize;
    if (offset + Codec::kRecordSize > file_.size()) {
      file_.grow_to(std::max(offset + Codec::kRecordSize, file_.size() * 2));
    }
    return offset;
  }

  /// Folds the just-written record into the running checksum (bytes are
  /// still cache-hot) and advances the write cursor.
  void commit_record(std::size_t offset) {
    running_checksum_ =
        util::fnv1a({file_.data() + offset, Codec::kRecordSize}, running_checksum_);
    ++count_;
    maybe_flush(offset + Codec::kRecordSize);
  }

  void maybe_flush(std::size_t written_end) {
    if (written_end - flushed_ < kFlushBytes) return;
    // Keep the superblock page resident; flush only completed payload.
    file_.flush(flushed_, written_end - flushed_);
    flushed_ = written_end;
  }

  MappedFile file_;
  std::uint64_t count_ = 0;
  std::size_t flushed_ = kSuperblockSize;
  bool finalized_ = false;
  std::uint64_t running_checksum_ = util::kFnv1aOffset;
  // Metric handles; all null (and finalize skips them) with no registry.
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* records_written_ = nullptr;
  obs::Counter* files_finalized_ = nullptr;
};

template <typename Codec>
  requires RecordCodec<Codec>
class RecordFileReader {
 public:
  using value_type = typename Codec::value_type;

  /// Opens and fully validates `path`: superblock, geometry against the
  /// file length, payload checksum. Throws StoreError on any mismatch.
  /// `registry` (optional, not owned) receives the cbwt_store_* read
  /// metrics (open-time validation plus per-chunk streaming counts).
  explicit RecordFileReader(const std::string& path, obs::Registry* registry = nullptr)
      : file_(MappedFile::open_readonly(path)) {
    const auto block = parse_superblock({file_.data(), file_.size()});
    if (!block) throw StoreError("store: invalid superblock in '" + path + "'");
    if (block->kind != static_cast<RecordKind>(Codec::kKind) ||
        block->record_size != Codec::kRecordSize) {
      throw StoreError("store: '" + path + "' holds a different record kind");
    }
    if (file_.size() != kSuperblockSize + block->payload_bytes) {
      throw StoreError("store: '" + path + "' is truncated or has trailing bytes");
    }
    ChecksumStats checksum_stats;
    if (checksum_payload(file_, block->payload_bytes, &checksum_stats) !=
        block->checksum) {
      throw StoreError("store: checksum mismatch in '" + path + "'");
    }
    count_ = block->record_count;
    checksum_ = block->checksum;
    if (registry != nullptr) {
      bytes_read_ = &registry->counter("cbwt_store_bytes_read_total");
      records_read_ = &registry->counter("cbwt_store_records_read_total");
      files_opened_ = &registry->counter("cbwt_store_files_opened_total");
      checksum_windows_ = &registry->counter("cbwt_store_checksum_windows_total");
      pages_dropped_ = &registry->counter("cbwt_store_pages_dropped_total");
      files_opened_->add(1);
      checksum_windows_->add(checksum_stats.windows);
      pages_dropped_->add(checksum_stats.pages_dropped);
    }
  }

  RecordFileReader(RecordFileReader&&) noexcept = default;
  RecordFileReader& operator=(RecordFileReader&&) noexcept = default;

  [[nodiscard]] std::uint64_t size() const noexcept { return count_; }

  /// The superblock's payload checksum, verified at open. A cheap
  /// content identity for the whole file (resume manifests compare it
  /// to detect a regenerated input without rehashing the payload).
  [[nodiscard]] std::uint64_t checksum() const noexcept { return checksum_; }

  /// Decodes record `index`. Throws StoreError if the bytes do not
  /// decode (a checksum-valid file written with a foreign layout).
  [[nodiscard]] value_type at(std::uint64_t index) const {
    CBWT_EXPECTS(index < count_);
    const auto record =
        Codec::decode(file_.data() + kSuperblockSize + index * Codec::kRecordSize);
    if (!record) {
      throw StoreError("store: malformed record in '" + file_.path() + "'");
    }
    return *record;
  }

  /// Streams every record in index order as dense chunks of at most
  /// `chunk_records`, invoking fn(std::span<const value_type>,
  /// base_index). The decode buffer is reused and consumed file pages
  /// are dropped from the resident set, so memory stays O(chunk).
  template <typename Fn>
  void for_each_chunk(std::size_t chunk_records, Fn&& fn) const {
    std::vector<value_type> buffer;
    for_each_chunk_range(0, count_, chunk_records, buffer, std::forward<Fn>(fn));
  }

  /// Ranged variant: streams records [begin, end) with absolute base
  /// indices, decoding into the caller's `buffer` (its contents are
  /// replaced, its capacity reused), so a caller that streams many
  /// ranges can recycle one buffer across them. Safe to call
  /// concurrently from several threads with distinct buffers (the
  /// sharded spill pass does): the mapping is read-only, the metric
  /// handles are atomic, and a drop_range racing another shard's read
  /// merely re-faults the page.
  template <typename Fn>
  void for_each_chunk_range(std::uint64_t begin, std::uint64_t end,
                            std::size_t chunk_records, std::vector<value_type>& buffer,
                            Fn&& fn) const {
    CBWT_EXPECTS(chunk_records > 0);
    CBWT_EXPECTS(begin <= end && end <= count_);
    buffer.reserve(std::min<std::uint64_t>(chunk_records, end - begin));
    for (std::uint64_t base = begin; base < end; base += chunk_records) {
      const std::uint64_t n = std::min<std::uint64_t>(chunk_records, end - base);
      buffer.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto record = Codec::decode(file_.data() + kSuperblockSize +
                                          (base + i) * Codec::kRecordSize);
        if (!record) {
          throw StoreError("store: malformed record in '" + file_.path() + "'");
        }
        buffer.push_back(*record);
      }
      fn(std::span<const value_type>(buffer), base);
      file_.drop_range(kSuperblockSize + base * Codec::kRecordSize,
                       n * Codec::kRecordSize);
      if (records_read_ != nullptr) {
        records_read_->add(n);
        bytes_read_->add(n * Codec::kRecordSize);
        pages_dropped_->add((n * Codec::kRecordSize + 4095) / 4096);
      }
    }
  }

  [[nodiscard]] const std::string& path() const noexcept { return file_.path(); }

 private:
  MappedFile file_;
  std::uint64_t count_ = 0;
  std::uint64_t checksum_ = 0;
  // Metric handles; all null (and the streaming path skips them) with
  // no registry attached.
  obs::Counter* bytes_read_ = nullptr;
  obs::Counter* records_read_ = nullptr;
  obs::Counter* files_opened_ = nullptr;
  obs::Counter* checksum_windows_ = nullptr;
  obs::Counter* pages_dropped_ = nullptr;
};

}  // namespace cbwt::store
