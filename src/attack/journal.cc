#include "src/attack/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "src/graph/io_text.h"

namespace geattack {

namespace {

using textio::AppendInt;
using textio::AppendUint;
using textio::Cursor;
using textio::ParseInt;
using textio::ParseToken;
using textio::ParseUint;
using textio::ReadAll;

// Sanity caps: a corrupted length field must not drive a giant allocation.
constexpr int64_t kMaxListLength = int64_t{1} << 24;  // Edges or tickets.
constexpr int64_t kMaxRawBytes = int64_t{1} << 20;    // A message or name.

/// CRC32 (reflected, polynomial 0xEDB88320 — the zlib/PNG one) over a byte
/// span.  Table built once; static local init is thread-safe.
uint32_t Crc32(const char* data, size_t len) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i)
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(data[i])) &
                             0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

std::string EncodeHeader(uint64_t base_seed, int64_t count) {
  std::string header = "geajournal v3\nmeta ";
  AppendUint(&header, base_seed);
  header += ' ';
  AppendInt(&header, count);
  header += '\n';
  return header;
}

// ----- Encoding: `<tag>` then ` <field>` per field. --------------------------

void AppendInts(std::string* out, std::initializer_list<int64_t> values) {
  for (const int64_t v : values) {
    *out += ' ';
    AppendInt(out, v);
  }
}

void AppendEdges(std::string* out, const std::vector<Edge>& edges) {
  AppendInts(out, {static_cast<int64_t>(edges.size())});
  for (const Edge& e : edges) AppendInts(out, {e.u, e.v});
}

/// ` <len>`, one newline, then the raw bytes.
void AppendRaw(std::string* out, const std::string& bytes) {
  AppendInts(out, {static_cast<int64_t>(bytes.size())});
  *out += '\n';
  *out += bytes;
}

/// The result codec `r` and `t` share: status code, edge list, message.
void AppendResult(std::string* out, const AttackResult& result) {
  AppendInts(out, {static_cast<int64_t>(result.status.code())});
  AppendEdges(out, result.added_edges);
  AppendRaw(out, result.status.message());
}

void Encode(const TargetRecord& r, std::string* out) {
  *out += 'r';
  AppendInts(out, {r.request_index});
  AppendResult(out, r.result);
}

void Encode(const ServiceSubmitRecord& r, std::string* out) {
  *out += 's';
  AppendInts(out, {r.ticket, r.accepted_index, r.epoch, r.target_node,
                   r.target_label, r.budget, r.priority});
  AppendRaw(out, r.version);
}

void Encode(const ServiceChurnRecord& r, std::string* out) {
  *out += 'g';
  AppendInts(out, {r.epoch, static_cast<int64_t>(r.bumped_tickets.size())});
  for (const int64_t t : r.bumped_tickets) AppendInts(out, {t});
  AppendEdges(out, r.added);
  AppendEdges(out, r.removed);
  AppendRaw(out, r.version);
}

void Encode(const ServiceCompleteRecord& r, std::string* out) {
  *out += 't';
  AppendInts(out, {r.ticket, r.attempts, r.effective_budget, r.epoch});
  AppendResult(out, r.result);
}

// ----- Decoding: every helper returns false on torn or malformed bytes. ----

bool ParseInts(Cursor* c, std::initializer_list<int64_t*> values) {
  for (int64_t* v : values)
    if (!ParseInt(c, v)) return false;
  return true;
}

bool ParseLength(Cursor* c, int64_t* n) {
  return ParseInt(c, n) && *n >= 0 && *n <= kMaxListLength;
}

bool ParseEdges(Cursor* c, std::vector<Edge>* out) {
  int64_t n = 0;
  if (!ParseLength(c, &n)) return false;
  out->clear();
  out->reserve(static_cast<size_t>(n));
  for (int64_t e = 0; e < n; ++e) {
    int64_t u = 0, v = 0;
    if (!ParseInts(c, {&u, &v})) return false;
    out->emplace_back(u, v);
  }
  return true;
}

bool ParseRaw(Cursor* c, std::string* out) {
  int64_t len = 0;
  if (!ParseInt(c, &len) || len < 0 || len > kMaxRawBytes) return false;
  // Exactly one '\n' separates the length from the raw bytes.
  if (c->p >= c->end || *c->p != '\n') return false;
  ++c->p;
  if (c->end - c->p < len) return false;  // Torn mid-payload.
  out->assign(c->p, static_cast<size_t>(len));
  c->p += len;
  return true;
}

bool ParseResult(Cursor* c, AttackResult* out) {
  int64_t code = 0;
  std::string message;
  if (!ParseInt(c, &code) || code < static_cast<int64_t>(StatusCode::kOk) ||
      code > static_cast<int64_t>(StatusCode::kNotFound) ||
      !ParseEdges(c, &out->added_edges) || !ParseRaw(c, &message))
    return false;
  out->status =
      Status::FromCode(static_cast<StatusCode>(code), std::move(message));
  return true;
}

bool Parse(Cursor* c, int64_t num_requests, TargetRecord* r) {
  return ParseInt(c, &r->request_index) && r->request_index >= 0 &&
         r->request_index < num_requests && ParseResult(c, &r->result);
}

bool Parse(Cursor* c, ServiceSubmitRecord* r) {
  return ParseInts(c, {&r->ticket, &r->accepted_index, &r->epoch,
                       &r->target_node, &r->target_label, &r->budget,
                       &r->priority}) &&
         r->ticket >= 0 && r->accepted_index >= 0 && r->epoch >= 0 &&
         ParseRaw(c, &r->version);
}

bool Parse(Cursor* c, ServiceChurnRecord* r) {
  int64_t n_bumped = 0;
  if (!ParseInt(c, &r->epoch) || r->epoch <= 0 || !ParseLength(c, &n_bumped))
    return false;
  r->bumped_tickets.reserve(static_cast<size_t>(n_bumped));
  for (int64_t i = 0; i < n_bumped; ++i) {
    int64_t t = 0;
    if (!ParseInt(c, &t) || t < 0) return false;
    r->bumped_tickets.push_back(t);
  }
  return ParseEdges(c, &r->added) && ParseEdges(c, &r->removed) &&
         ParseRaw(c, &r->version);
}

bool Parse(Cursor* c, ServiceCompleteRecord* r) {
  return ParseInts(c, {&r->ticket, &r->attempts, &r->effective_budget,
                       &r->epoch}) &&
         r->ticket >= 0 && r->attempts >= 0 && r->epoch >= 0 &&
         ParseResult(c, &r->result);
}

/// Outcome of parsing one record: only a complete record whose checksum
/// mismatches is kCorrupt — every other failure mode is indistinguishable
/// from a torn tail.
enum class RecordParse { kOk, kTorn, kCorrupt };

/// Parses one record starting exactly at `c->p` (the CRC span starts at its
/// tag), through its trailer `c <crc32> ;` and the newline that ends it.
/// Only `r` is legal under a count ≥ 0, only `s`/`g`/`t` under -1.
RecordParse ParseRecord(Cursor* c, int64_t count, JournalRecord* out) {
  const char* record_start = c->p;
  std::string_view tag;
  if (!ParseToken(c, &tag)) return RecordParse::kTorn;
  bool parsed = false;
  if (count >= 0)
    parsed = tag == "r" && Parse(c, count, &out->emplace<TargetRecord>());
  else if (tag == "s")
    parsed = Parse(c, &out->emplace<ServiceSubmitRecord>());
  else if (tag == "g")
    parsed = Parse(c, &out->emplace<ServiceChurnRecord>());
  else if (tag == "t")
    parsed = Parse(c, &out->emplace<ServiceCompleteRecord>());
  if (!parsed) return RecordParse::kTorn;

  const char* payload_end = c->p;  // The CRC covers [record_start, here).
  std::string_view token;
  uint64_t stored = 0;
  if (!ParseToken(c, &token) || token != "c" || !ParseUint(c, &stored) ||
      !ParseToken(c, &token) || token != ";" || c->p >= c->end ||
      *c->p != '\n')
    return RecordParse::kTorn;
  ++c->p;
  // The record is COMPLETE (terminator parsed) but its bytes changed since
  // it was written: structured corruption, not a torn tail.
  if (stored != Crc32(record_start,
                      static_cast<size_t>(payload_end - record_start)))
    return RecordParse::kCorrupt;
  return RecordParse::kOk;
}

/// write(2) the whole buffer, retrying on short writes / EINTR.
bool WriteAll(int fd, const std::string& buf) {
  size_t off = 0;
  while (off < buf.size()) {
    const ssize_t w = ::write(fd, buf.data() + off, buf.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

/// fsyncs the directory containing `path`, making a just-created directory
/// entry itself durable.  fsync on the file alone persists the file's bytes
/// and inode but NOT the parent directory's entry pointing at it — a crash
/// right after creation could lose the name, and a journal whose name is
/// gone protects nothing.
Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0)
    return Status::Error(ErrnoMessage("cannot open journal directory", dir));
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0)
    return Status::Error(ErrnoMessage("cannot fsync journal directory", dir));
  return Status::Ok();
}

}  // namespace

JournalLoadResult LoadJournal(const std::string& path, uint64_t base_seed,
                              int64_t count) {
  GEA_CHECK(count >= -1);
  JournalLoadResult loaded;
  std::ifstream is(path);
  std::string buf;
  if (!is || !ReadAll(is, &buf)) return loaded;  // Fresh start.
  // Anything but this run's exact header — another seed or count, the
  // other file kind, another format version — belongs to something else;
  // replaying it would be wrong, so it is ignored (and overwritten).
  const std::string header = EncodeHeader(base_seed, count);
  if (buf.compare(0, header.size(), header) != 0) return loaded;
  loaded.header_ok = true;
  loaded.valid_bytes = static_cast<int64_t>(header.size());

  Cursor c{buf.data() + header.size(), buf.data() + buf.size()};
  JournalRecord record;
  while (c.p < c.end) {
    const RecordParse parse = ParseRecord(&c, count, &record);
    if (parse == RecordParse::kTorn) break;  // Normal kill artifact.
    if (parse == RecordParse::kCorrupt) {
      // valid_bytes still points before this record, so the resuming
      // writer truncates the corrupt tail and its work is recomputed.
      loaded.status = Status::DataLoss(
          "journal record failed CRC check at byte offset " +
          std::to_string(loaded.valid_bytes) + " of " + path +
          "; dropping it and everything after it");
      break;
    }
    loaded.records.push_back(std::move(record));
    loaded.valid_bytes = c.p - buf.data();
  }
  return loaded;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status JournalWriter::Open(const std::string& path, int64_t resume_offset,
                           uint64_t base_seed, int64_t count) {
  GEA_CHECK(fd_ < 0);
  GEA_CHECK(resume_offset >= 0);
  GEA_CHECK(count >= -1);
  count_ = count;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return Status::Error(ErrnoMessage("cannot open journal", path));
  if (::ftruncate(fd_, static_cast<off_t>(resume_offset)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0) {
    ::close(fd_);
    fd_ = -1;
    return Status::Error(ErrnoMessage("cannot position journal", path));
  }
  if (resume_offset == 0 && !WriteAll(fd_, EncodeHeader(base_seed, count))) {
    ::close(fd_);
    fd_ = -1;
    return Status::Error(ErrnoMessage("cannot write journal header", path));
  }
  if (::fsync(fd_) != 0)
    return Status::Error(ErrnoMessage("cannot fsync journal", path));
  // Durability guarantee: the journal's directory entry survives a crash
  // from here on — fsync on the file covers its bytes, the directory fsync
  // covers the name O_CREAT may just have added.
  return FsyncParentDir(path);
}

Status JournalWriter::Append(const JournalRecord& record) {
  GEA_CHECK(fd_ >= 0);
  // The loader ends the replay at a record of the other file kind.
  GEA_CHECK(std::holds_alternative<TargetRecord>(record) == (count_ >= 0));
  std::string out;
  std::visit([&out](const auto& r) { Encode(r, &out); }, record);
  // The checksum spans the record bytes built so far — the tag through the
  // last raw byte — exactly what the loader recomputes over.
  const uint32_t crc = Crc32(out.data(), out.size());
  out += "\nc ";
  AppendUint(&out, crc);
  out += " ;\n";
  if (!WriteAll(fd_, out)) return Status::Error("journal write failed");
  if (::fsync(fd_) != 0) return Status::Error("journal fsync failed");
  return Status::Ok();
}

}  // namespace geattack
