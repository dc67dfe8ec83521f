// Stable storage for the names carried by value-parameterized test cases.
//
// gtest prints a parameter it has no printer for as its raw bytes, and
// gtest_discover_tests makes that print part of each CTest name. A `const
// char*` member thus puts the low byte of a string literal's address into
// the name, and that byte moves whenever any code linked into the test adds
// or drops a string. A table aligned to 256 bytes pins it: the load base is
// page-aligned, so a name's low address byte is its offset in the table.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <string>
#include <string_view>

namespace hermes::testing {

template <size_t kLead, size_t kSize>
struct alignas(256) ParamNameTable {
  // `kLead` zero bytes, then `names`: NUL-separated, NUL-terminated.
  char bytes[kLead + kSize] = {};

  // The copy of `name` in the table. It is looked up as "name\0", so a name
  // may be the tail of a longer one ("or" inside "xor").
  const char* operator[](std::string_view name) const {
    std::string key(name);
    key.push_back('\0');
    const size_t at = std::string_view(bytes + kLead, kSize).find(key);
    if (at == std::string_view::npos) std::abort();
    return bytes + kLead + at;
  }
};

template <size_t kLead, size_t kSize>
constexpr ParamNameTable<kLead, kSize> param_name_table(
    const char (&names)[kSize]) {
  ParamNameTable<kLead, kSize> t;
  for (size_t i = 0; i < kSize; ++i) t.bytes[kLead + i] = names[i];
  return t;
}

}  // namespace hermes::testing
