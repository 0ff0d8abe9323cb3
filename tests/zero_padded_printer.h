// Display names for parameterized suites whose parameter is a struct.
//
// Without a PrintTo, gtest prints such a parameter as its raw bytes
// ("24-byte object <03-00 00-00 ...>"), padding included. The padding
// holds whatever the stack held when the value was built, often address
// fragments that move with ASLR, so the names ctest records could differ
// between two discoveries of the same binary. PrintZeroPadded prints the
// same dump with every padding byte zero: names keep their gtest form
// and are identical across runs and builds.

#ifndef PBITREE_TESTS_ZERO_PADDED_PRINTER_H_
#define PBITREE_TESTS_ZERO_PADDED_PRINTER_H_

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

namespace pbitree {

// Prints `value` as gtest's raw-byte dump, taking the bytes of the listed
// members and zero for every other byte. List every member of T.
template <typename T, typename... Members>
void PrintZeroPadded(const T& value, std::ostream* os,
                     Members T::*... members) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  auto copy = [&](const auto& member) {
    const auto* at = reinterpret_cast<const unsigned char*>(&member);
    std::memcpy(bytes + (at - base), at, sizeof(member));
  };
  (copy(value.*members), ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace pbitree

#endif  // PBITREE_TESTS_ZERO_PADDED_PRINTER_H_
