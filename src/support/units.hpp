// Fundamental quantities used throughout the library.
//
// Virtual (and wall) time is carried as a signed 64-bit nanosecond count:
// cheap to copy, exact, and wide enough for ~292 years of simulation. Sizes
// are byte counts. Both get thin helpers instead of heavyweight unit types so
// arithmetic stays transparent in performance-sensitive simulator code.
#pragma once

#include <cstdint>
#include <string>

namespace adapt {

/// Nanoseconds, the library-wide time unit (virtual time in the simulator,
/// steady-clock time in the thread engine).
using TimeNs = std::int64_t;

/// Byte counts for message/payload sizes.
using Bytes = std::int64_t;

/// Process identifier inside a communicator (dense, 0-based).
using Rank = std::int32_t;

/// Message tag, MPI-style.
using Tag = std::int32_t;

inline constexpr Rank kAnyRank = -1;  ///< wildcard source for receives
inline constexpr Tag kAnyTag = -1;    ///< wildcard tag for receives

/// Which memory a message endpoint lives in (GPU-aware paths, paper §4).
enum class MemSpace { kHost, kDevice };

// -- time construction helpers ------------------------------------------------
constexpr TimeNs nanoseconds(std::int64_t v) { return v; }
constexpr TimeNs microseconds(double v) { return static_cast<TimeNs>(v * 1e3); }
constexpr TimeNs milliseconds(double v) { return static_cast<TimeNs>(v * 1e6); }
constexpr TimeNs seconds(double v) { return static_cast<TimeNs>(v * 1e9); }

constexpr double to_ms(TimeNs t) { return static_cast<double>(t) / 1e6; }
constexpr double to_sec(TimeNs t) { return static_cast<double>(t) / 1e9; }

// -- size construction helpers ------------------------------------------------
constexpr Bytes kib(std::int64_t v) { return v * 1024; }
constexpr Bytes mib(std::int64_t v) { return v * 1024 * 1024; }
constexpr Bytes gib(std::int64_t v) { return v * 1024 * 1024 * 1024; }

/// "4.0MB", "64KB", "973B" — compact human-readable size used in reports.
std::string format_bytes(Bytes b);

/// "12.34ms", "567.8us", "1.234s" — compact human-readable duration.
std::string format_time(TimeNs t);

/// Gb/s given bytes moved over a duration (0 duration -> 0).
double gbps(Bytes bytes, TimeNs duration);

}  // namespace adapt
