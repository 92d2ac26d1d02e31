#include "store/blob_file.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "store/bytes.h"
#include "store/superblock.h"
#include "util/contract.h"
#include "util/fnv1a.h"

namespace cbwt::store {

namespace {
constexpr std::size_t kInitialBytes = 1 << 20;
}  // namespace

BlobFileWriter::BlobFileWriter(const std::string& path)
    : file_(MappedFile::create(path, kInitialBytes)) {}

BlobFileWriter::~BlobFileWriter() {
  if (file_.is_open() && !finalized_) {
    try {
      finalize();
    } catch (...) {  // NOLINT(bugprone-empty-catch): dtor must not throw
    }
  }
}

BlobRef BlobFileWriter::intern(std::string_view text) {
  CBWT_EXPECTS(!finalized_);
  CBWT_EXPECTS(text.size() <= std::numeric_limits<std::uint32_t>::max());
  if (text.empty()) return BlobRef{};
  if (const auto it = interned_.find(text); it != interned_.end()) {
    return it->second;
  }
  const BlobRef ref{append(text), static_cast<std::uint32_t>(text.size())};
  interned_.emplace(std::string(text), ref);
  ++count_;
  return ref;
}

std::uint64_t BlobFileWriter::append(std::string_view bytes) {
  CBWT_EXPECTS(!finalized_);
  const std::uint64_t start = used_;
  if (bytes.empty()) return start;
  const std::size_t offset = kSuperblockSize + used_;
  if (offset + bytes.size() > file_.size()) {
    file_.grow_to(std::max(offset + bytes.size(), file_.size() * 2));
  }
  std::memcpy(file_.data() + offset, bytes.data(), bytes.size());
  used_ += bytes.size();
  return start;
}

void BlobFileWriter::finalize() {
  if (finalized_) return;
  Superblock block;
  block.kind = RecordKind::Blob;
  block.record_size = 0;
  block.record_count = count_;
  block.payload_bytes = used_;
  block.checksum = util::fnv1a({file_.data() + kSuperblockSize, used_});
  encode_superblock(block, {file_.data(), kSuperblockSize});
  file_.sync();
  file_.truncate_to(kSuperblockSize + used_);
  finalized_ = true;
}

BlobFileReader::BlobFileReader(const std::string& path)
    : file_(MappedFile::open_readonly(path)) {
  const auto block = parse_superblock({file_.data(), file_.size()});
  if (!block) throw StoreError("store: invalid superblock in '" + path + "'");
  if (block->kind != RecordKind::Blob) {
    throw StoreError("store: '" + path + "' is not a blob file");
  }
  if (file_.size() != kSuperblockSize + block->payload_bytes) {
    throw StoreError("store: '" + path + "' is truncated or has trailing bytes");
  }
  if (util::fnv1a({file_.data() + kSuperblockSize, block->payload_bytes}) !=
      block->checksum) {
    throw StoreError("store: checksum mismatch in '" + path + "'");
  }
  count_ = block->record_count;
  payload_ = block->payload_bytes;
}

std::string_view BlobFileReader::view(const BlobRef& ref) const {
  if (ref.length == 0) return {};
  if (ref.offset > payload_ || payload_ - ref.offset < ref.length) {
    throw StoreError("store: blob ref out of range in '" + file_.path() + "'");
  }
  return {reinterpret_cast<const char*>(file_.data() + kSuperblockSize + ref.offset),
          ref.length};
}

}  // namespace cbwt::store
