#include "src/support/units.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace adapt {

namespace {

std::string format_scaled(double value, const char* unit) {
  std::array<char, 48> buf{};
  if (value >= 100.0) {
    std::snprintf(buf.data(), buf.size(), "%.0f%s", value, unit);
  } else if (value >= 10.0) {
    std::snprintf(buf.data(), buf.size(), "%.1f%s", value, unit);
  } else {
    std::snprintf(buf.data(), buf.size(), "%.2f%s", value, unit);
  }
  return buf.data();
}

}  // namespace

std::string format_bytes(Bytes b) {
  const double v = static_cast<double>(b);
  if (b >= gib(1)) return format_scaled(v / static_cast<double>(gib(1)), "GB");
  if (b >= mib(1)) return format_scaled(v / static_cast<double>(mib(1)), "MB");
  if (b >= kib(1)) return format_scaled(v / static_cast<double>(kib(1)), "KB");
  return std::to_string(b) + "B";
}

std::string format_time(TimeNs t) {
  const double v = static_cast<double>(t);
  if (t < 0) {
    // Appended rather than `"-" + format_time(-t)`: inserting at the front
    // of a temporary trips GCC 12's -Wrestrict false positive in Release.
    std::string out = "-";
    out += format_time(-t);
    return out;
  }
  if (t >= seconds(1)) return format_scaled(v / 1e9, "s");
  if (t >= milliseconds(1)) return format_scaled(v / 1e6, "ms");
  if (t >= microseconds(1)) return format_scaled(v / 1e3, "us");
  return std::to_string(t) + "ns";
}

double gbps(Bytes bytes, TimeNs duration) {
  if (duration <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / static_cast<double>(duration);
}

}  // namespace adapt
