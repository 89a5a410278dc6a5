#include "result.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Result::Error(const std::string& what) {
  // Keep the first few messages; the count says how many there were.
  if (errors_.size() < 20) errors_.push_back(what);
  errors_total_++;
}

std::string Result::Json() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  char buf[160];
  snprintf(buf, sizeof(buf),
           ",\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
           ",\"errors_total\":%" PRIu64,
           attempted, failed, errors_total_);
  out += buf;
  out += ",\"errors\":[";
  for (size_t i = 0; i < errors_.size(); i++) {
    out += (i ? "," : "") + JsonString(errors_[i]);
  }
  out += "],\"params\":{";
  bool first = true;
  for (const auto& [k, v] : params_) {
    out += (first ? "" : ",") + JsonString(k) + ":" + JsonString(v);
    first = false;
  }
  out += "},\"metrics\":{";
  first = true;
  for (const auto& [k, m] : metrics_) {
    const double v = std::isfinite(m.value) ? m.value : 0;
    snprintf(buf, sizeof(buf),
             ":{\"value\":%.17g,\"unit\":%s,\"count\":%" PRIu64 "}", v,
             JsonString(m.unit).c_str(), m.count);
    out += (first ? "" : ",") + JsonString(k) + buf;
    first = false;
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [k, values] : samples_) {
    out += (first ? "" : ",") + JsonString(k) + ":[";
    for (size_t i = 0; i < values.size(); i++) {
      snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", values[i]);
      out += buf;
    }
    out += "]";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
