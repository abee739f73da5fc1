// String building for test data: Cat("v", i) instead of
// "v" + std::to_string(i). The latter resolves to
// operator+(const char*, std::string&&), whose inlined insert-at-front
// trips a GCC 12 -Werror=restrict false positive at -O3; Cat only ever
// appends to one string.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>

namespace elsm::test_util {

inline void AppendPart(std::string* out, std::string_view part) {
  out->append(part);
}

template <typename Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
void AppendPart(std::string* out, Int n) {
  out->append(std::to_string(n));
}

template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  (AppendPart(&out, parts), ...);
  return out;
}

}  // namespace elsm::test_util
