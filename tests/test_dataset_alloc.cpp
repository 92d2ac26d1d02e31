// Loading a saved extension dataset allocates O(1) times, not O(N): the
// requests view one copy of the blob payload instead of owning a string
// each. Global operator new is replaced with a counting version, and the
// allocation count of load_requests must be the same for 1,000 requests
// as for 150,000 (three record-reader chunks).
//
// Sanitizer builds interpose the allocator themselves, so the counting
// replacement is compiled out there and the test is skipped.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "browser/dataset_store.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CBWT_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CBWT_ALLOC_COUNTING 0
#else
#define CBWT_ALLOC_COUNTING 1
#endif
#else
#define CBWT_ALLOC_COUNTING 1
#endif

#if CBWT_ALLOC_COUNTING

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // CBWT_ALLOC_COUNTING

namespace cbwt::browser {
namespace {

#if CBWT_ALLOC_COUNTING

/// Saves `n` requests shaped like a chained panel (distinct URLs, each
/// referrer its predecessor's URL) and returns the allocations one
/// load_requests of them makes.
std::uint64_t allocations_to_load(std::uint32_t n) {
  const std::string dir =
      ::testing::TempDir() + "/cbwt_dataset_alloc_" + std::to_string(n);
  std::filesystem::create_directories(dir);
  {
    ExtensionDataset dataset;
    std::string_view parent;
    for (std::uint32_t i = 0; i < n; ++i) {
      ThirdPartyRequest request;
      request.user = i % 350;
      request.url = dataset.add_text("https://t" + std::to_string(i % 97) +
                                     ".example/bid?auction=" + std::to_string(i));
      request.referrer = parent;
      request.chain_depth = static_cast<std::uint8_t>(i % 4);
      dataset.requests.push_back(request);
      parent = request.url;
    }
    save_requests(dataset, dir + "/dataset.rec", dir + "/dataset.blob");
  }
  const std::string records = dir + "/dataset.rec";
  const std::string blobs = dir + "/dataset.blob";
  const std::uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  const ExtensionDataset loaded = load_requests(records, blobs);
  const std::uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(loaded.requests.size(), n);
  EXPECT_EQ(loaded.requests.back().referrer, loaded.requests[n - 2].url);
  std::filesystem::remove_all(dir);
  return after - before;
}

#endif  // CBWT_ALLOC_COUNTING

TEST(DatasetLoadAlloc, AllocationsDoNotGrowWithTheRequestCount) {
#if !CBWT_ALLOC_COUNTING
  GTEST_SKIP() << "allocator interposed by a sanitizer; counting disabled";
#else
  const std::uint64_t small = allocations_to_load(1'000);
  const std::uint64_t large = allocations_to_load(150'000);
  EXPECT_EQ(large, small) << "load_requests allocated " << small << " times for 1,000 "
                          << "requests and " << large << " times for 150,000";
  EXPECT_LE(small, 32U);
#endif
}

}  // namespace
}  // namespace cbwt::browser
