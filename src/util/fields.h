#pragma once

// One field list per config struct: a for_each_field(cfg, visitor) overload
// next to each struct calls visitor(FieldInfo, member) for every member, in
// config_fingerprint byte order, the member as const as cfg. Consumers walk
// the lists instead of naming fields; static_assert(field_list_complete<T>)
// next to each list fails the build when T gains a member its list does not
// name.

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace fedclust::util {

// How a field enters fl::config_fingerprint.
enum class Fingerprint : std::uint8_t {
  kAlways,
  kNever,    // a perf dial that must not change results
  kIfSet,    // only when != T{}: configs that leave it unset keep the
             // fingerprint they had before the field existed
  kRetired,  // not a member: a removed field's constant old value keeps its
             // fingerprint slot; every other consumer skips it
};

struct FieldInfo {
  const char* name;                // the manifest JSON key
  const char* spec_key = nullptr;  // fl::FaultPlan: the --fault-spec key
  Fingerprint fingerprint = Fingerprint::kAlways;
};

// Constrains a for_each_field overload to T and const T.
template <class C, class T>
concept ConfigRef = std::same_as<std::remove_const_t<C>, T>;

// The nested config groups: types that have a field list themselves.
template <class T>
concept HasFieldList = requires(T& t) {
  for_each_field(t, [](const FieldInfo&, auto&) {});
};

namespace detail {

struct AnyMember {  // converts to any member type; never evaluated
  template <class T>
  operator T() const;
};

// The largest n for which the aggregate initialization T{AnyMember x n}
// is well-formed: T's member count.
template <class T, class... Members>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return member_count<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

template <class T>
constexpr std::size_t list_length() {
  T cfg{};
  std::size_t n = 0;
  for_each_field(cfg, [&](const FieldInfo& f, const auto&) {
    n += f.fingerprint != Fingerprint::kRetired;
  });
  return n;
}

}  // namespace detail

template <class T>
inline constexpr bool field_list_complete =
    detail::member_count<T>() == detail::list_length<T>();

}  // namespace fedclust::util
