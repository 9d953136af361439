// Build identity for the wsk_build_info metric and CLI banners.
//
// The version tracks the PR sequence (major.PR); the ISA string is injected
// by the build (WSK_ISA cache variable -> WSK_ISA_STRING definition) so
// dashboards can join performance numbers to the codegen baseline they were
// measured under (docs/PERF.md).
#ifndef WSK_COMMON_VERSION_H_
#define WSK_COMMON_VERSION_H_

namespace wsk {

inline constexpr const char kBuildVersion[] = "0.10.0";

// The on-disk node format this build reads and writes
// (storage/node_codec_v2.h); surfaced as the index_format label.
inline constexpr const char kNodeFormatName[] = "v2";

inline const char* BuildIsa() {
#ifdef WSK_ISA_STRING
  return WSK_ISA_STRING;
#else
  return "unknown";
#endif
}

}  // namespace wsk

#endif  // WSK_COMMON_VERSION_H_
