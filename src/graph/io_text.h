// Shared bulk-text tokenization helpers for the line-oriented formats
// ("geadata v1", "geagcn v1", "geajournal v3").
//
// Writing: formatting through operator<< costs a virtual call and a locale
// lookup per token; at 1M nodes (tens of millions of tokens) that dominates
// save time.  Tokens are instead formatted with snprintf into one
// append-only buffer flushed to the stream in multi-megabyte chunks.
//
// Reading: the loader slurps the stream once and tokenizes it in place with
// a char cursor — no per-token stream state, no locale, no istream
// sentries.  Every Parse* helper returns false instead of trusting the
// bytes, so loaders can surface structured errors (see src/base/status.h).

#ifndef GEATTACK_SRC_GRAPH_IO_TEXT_H_
#define GEATTACK_SRC_GRAPH_IO_TEXT_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

namespace geattack {
namespace textio {

inline void AppendInt(std::string* out, int64_t v) {
  char tmp[24];
  const int len =
      std::snprintf(tmp, sizeof(tmp), "%lld", static_cast<long long>(v));
  out->append(tmp, static_cast<size_t>(len));
}

inline void AppendUint(std::string* out, uint64_t v) {
  char tmp[24];
  const int len = std::snprintf(tmp, sizeof(tmp), "%llu",
                                static_cast<unsigned long long>(v));
  out->append(tmp, static_cast<size_t>(len));
}

inline void AppendDouble(std::string* out, double v) {
  // %.17g round-trips every finite double exactly, so load(save(x)) == x
  // bit-for-bit (the round-trip tests assert MaxAbsDiff == 0).
  char tmp[40];
  const int len = std::snprintf(tmp, sizeof(tmp), "%.17g", v);
  out->append(tmp, static_cast<size_t>(len));
}

inline void FlushChunk(std::string* out, std::ostream& os, size_t threshold) {
  if (out->size() < threshold) return;
  os.write(out->data(), static_cast<std::streamsize>(out->size()));
  out->clear();
}

inline bool ReadAll(std::istream& is, std::string* buf) {
  char chunk[1 << 16];
  while (is.read(chunk, sizeof(chunk)))
    buf->append(chunk, sizeof(chunk));
  buf->append(chunk, static_cast<size_t>(is.gcount()));
  return !buf->empty();
}

struct Cursor {
  const char* p;
  const char* end;
};

inline bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r';
}

inline void SkipSpace(Cursor* c) {
  while (c->p < c->end && IsSpace(*c->p)) ++c->p;
}

inline bool ParseInt(Cursor* c, int64_t* out) {
  SkipSpace(c);
  bool negative = false;
  if (c->p < c->end && *c->p == '-') {
    negative = true;
    ++c->p;
  }
  if (c->p >= c->end || *c->p < '0' || *c->p > '9') return false;
  int64_t v = 0;
  while (c->p < c->end && *c->p >= '0' && *c->p <= '9') {
    v = v * 10 + (*c->p - '0');
    ++c->p;
  }
  *out = negative ? -v : v;
  return true;
}

inline bool ParseUint(Cursor* c, uint64_t* out) {
  SkipSpace(c);
  if (c->p >= c->end || *c->p < '0' || *c->p > '9') return false;
  uint64_t v = 0;
  while (c->p < c->end && *c->p >= '0' && *c->p <= '9') {
    v = v * 10 + static_cast<uint64_t>(*c->p - '0');
    ++c->p;
  }
  *out = v;
  return true;
}

inline bool ParseDouble(Cursor* c, double* out) {
  SkipSpace(c);
  if (c->p >= c->end) return false;
  // The backing buffer is a std::string, so c->end points at a NUL — strtod
  // cannot run past it.
  char* after = nullptr;
  *out = std::strtod(c->p, &after);
  if (after == c->p || after > c->end) return false;
  c->p = after;
  return true;
}

/// Next whitespace-delimited token, viewed into the buffer (no copy).
inline bool ParseToken(Cursor* c, std::string_view* token) {
  SkipSpace(c);
  if (c->p >= c->end) return false;
  const char* start = c->p;
  while (c->p < c->end && !IsSpace(*c->p)) ++c->p;
  *token = std::string_view(start, static_cast<size_t>(c->p - start));
  return true;
}

}  // namespace textio
}  // namespace geattack

#endif  // GEATTACK_SRC_GRAPH_IO_TEXT_H_
