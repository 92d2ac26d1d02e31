// Where the pipeline's big collections live: heap vectors (the default,
// unchanged path) or memory-mapped record files under a store directory.
// Both layouts run the identical per-record code, which is what makes
// their outputs bit-identical.
#pragma once

#include <cstdint>

namespace cbwt::store {

/// Where a dataset's records are materialized.
enum class Mode : std::uint8_t {
  InMemory,     ///< heap vectors, the seed pipeline's layout
  StoreBacked,  ///< memory-mapped record files under a store directory
};

}  // namespace cbwt::store
