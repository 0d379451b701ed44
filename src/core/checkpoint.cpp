#include "core/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/durable/crc32c.hpp"
#include "core/shard/shard_map.hpp"
#include "core/shard/sharded_system.hpp"

namespace trustrate::core {
namespace {

using durable::crc32c;
using durable::crc32c_hex;

/// The C locale's isspace set: the token separators of the format. Spelled
/// out rather than std::isspace so bytes >= 0x80 need no cast and no locale.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

constexpr int hex_value(char c) {
  if (is_digit(c)) return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// The next whitespace-delimited field of `text` at or after `pos` (empty
/// when none is left), advancing `pos` past it.
std::string_view next_field(std::string_view text, std::size_t& pos) {
  while (pos < text.size() && is_space(text[pos])) ++pos;
  const std::size_t start = pos;
  while (pos < text.size() && !is_space(text[pos])) ++pos;
  return text.substr(start, pos - start);
}

// ---------------------------------------------------------------- writing

/// Appends checkpoint text to one reserved string. Fields are formatted
/// into a small stack buffer that is appended in one piece whenever it
/// fills and at every section boundary, so the per-rating loops neither
/// allocate nor touch an iostream. Sections are checksummed in place: the
/// crc line covers the output bytes from the section's start.
class TextWriter {
 public:
  explicit TextWriter(std::string& out) : out_(out) {}

  /// Writes `fields` separated by single spaces and ends the line.
  template <typename... Fields>
  void line(const Fields&... fields) {
    bool first = true;
    ((first ? void(first = false) : put(' '), put(fields)), ...);
    put('\n');
  }

  void put(char c) {
    room(1);
    *p_++ = c;
  }

  void put(std::string_view s) {
    if (s.size() > kField) {
      flush();
      out_.append(s);
      return;
    }
    room(s.size());
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }

  template <std::integral T>
  void put(T v) {
    room(kField);
    p_ = std::to_chars(p_, p_ + kField, static_cast<std::uint64_t>(v)).ptr;
  }

  /// C hexfloat, byte-identical to printf's `%a`: every finite double
  /// round-trips bit-exactly through strtod, and inf/nan (possible in
  /// quarantined ratings) print readably. Normal numbers and zeros go
  /// through to_chars, whose shortest hex spelling is `%a` without the
  /// `0x` prefix; subnormal and non-finite values keep `%a` itself (the
  /// libstdc++ subnormal spelling differs from glibc's).
  void put(double x) {
    room(kField + 1);  // + snprintf's terminator
    const int kind = std::fpclassify(x);
    if (kind == FP_NORMAL || kind == FP_ZERO) {
      if (std::signbit(x)) {
        *p_++ = '-';
        x = -x;
      }
      *p_++ = '0';
      *p_++ = 'x';
      p_ = std::to_chars(p_, p_ + kField, x, std::chars_format::hex).ptr;
    } else {
      p_ += std::snprintf(p_, kField + 1, "%a", x);
    }
  }

  void put(const Rating& r) {
    put(r.time);
    put(' ');
    put(r.value);
    put(' ');
    put(r.rater);
    put(' ');
    put(r.product);
    put(' ');
    put(static_cast<unsigned>(r.label));
  }

  /// Quarantine detail strings are free text (spaces, anything ingest put
  /// there); on the wire they must be a single whitespace-free token.
  /// Percent-escaping: '%', whitespace, control, and non-ASCII bytes become
  /// %XX; the empty string is spelled `-` (and a literal "-" is escaped so
  /// the spelling stays unambiguous). Round-trips byte-exactly.
  void put_detail(std::string_view detail) {
    if (detail.empty()) return put('-');
    if (detail == "-") return put("%2d");
    constexpr char kHex[] = "0123456789abcdef";
    for (const char c : detail) {
      const auto byte = static_cast<unsigned char>(c);
      if (byte <= 0x20 || byte >= 0x7F || byte == '%') {
        room(3);
        *p_++ = '%';
        *p_++ = kHex[byte >> 4];
        *p_++ = kHex[byte & 0xFu];
      } else {
        put(c);
      }
    }
  }

  void begin_section() {
    flush();
    section_start_ = out_.size();
  }

  /// Closes the open section: appends the `crc <name> <hex8>` line whose
  /// checksum covers exactly the section's bytes.
  void end_section(std::string_view name) {
    flush();
    line("crc", name,
         crc32c_hex(crc32c(std::string_view(out_).substr(section_start_))));
    begin_section();
  }

  /// `filecrc <hex8>` over every byte so far, then the trailing `end`.
  void finish() {
    flush();
    line("filecrc", crc32c_hex(crc32c(out_)));
    line("end");
    flush();
  }

 private:
  /// Room a numeric field may need: the longest double spelling,
  /// "-0x1.fffffffffffffp+1023", is 24 bytes; a u64 is at most 20.
  static constexpr std::size_t kField = 32;

  void room(std::size_t n) {
    if (static_cast<std::size_t>(buf_ + sizeof buf_ - p_) < n) flush();
  }

  void flush() {
    out_.append(buf_, static_cast<std::size_t>(p_ - buf_));
    p_ = buf_;
  }

  std::string& out_;
  std::size_t section_start_ = 0;
  char buf_[4096];
  char* p_ = buf_;
};

using PendingRef = std::pair<ProductId, const RatingSeries*>;
using RetainedRef = std::pair<ProductId, const std::vector<RatingSeries>*>;

/// Appends one `pending`-shaped product map (used for both the global v3
/// section body and each shard's slice of it in v4).
void write_pending_body(TextWriter& w, const std::vector<PendingRef>& pending) {
  w.line("pending", pending.size());
  for (const auto& [product, series] : pending) {
    w.line(product, series->size());
    for (const Rating& r : *series) w.line(r);
  }
}

void write_retained_body(TextWriter& w,
                         const std::vector<RetainedRef>& retained) {
  w.line("retained", retained.size());
  for (const auto& [product, epochs] : retained) {
    w.line(product, epochs->size());
    for (const RatingSeries& epoch : *epochs) {
      w.line(epoch.size());
      for (const Rating& r : epoch) w.line(r);
    }
  }
}

/// Upper-bound-ish size of the rendered text, so the output string is
/// reserved once: a rating line is ~50 bytes and at most 76.
std::size_t estimate_size(const StreamSnapshot& s) {
  std::size_t lines = s.buffer.size() + s.seen.size() + s.quarantine.size() +
                      s.trust.size() + s.pending.size() + s.retained.size();
  std::size_t detail_bytes = 0;
  for (const QuarantinedRating& q : s.quarantine) {
    detail_bytes += 3 * q.detail.size();
  }
  for (const auto& [product, series] : s.pending) lines += series.size();
  for (const auto& [product, epochs] : s.retained) {
    lines += epochs.size();
    for (const RatingSeries& epoch : epochs) lines += epoch.size();
  }
  return 4096 + 64 * (lines + s.health.size() + s.shard_skipped_cells.size()) +
         detail_bytes;
}

// ---------------------------------------------------------------- reading

/// Whitespace-token reader over the checkpoint text; every accessor
/// throws CheckpointError with the offending context *and line number* on
/// malformed input (mirroring the CSV loader's line-numbered errors).
/// Numbers take a from_chars fast path for the writer's own spelling and
/// fall back to strtod/strtoull for anything else, so what the format
/// accepts — and every error message — is exactly what strtod decides.
class TokenReader {
 public:
  explicit TokenReader(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// Line (1-based) of the most recently read token.
  std::size_t line() const { return token_line_; }

  [[noreturn]] void fail(const std::string& message) const {
    throw CheckpointError(message + " (line " + std::to_string(token_line_) +
                          ")");
  }

  std::string_view next(const char* what) {
    while (pos_ != end_ && is_space(*pos_)) {
      if (*pos_ == '\n') ++line_;
      ++pos_;
    }
    token_line_ = line_;
    if (pos_ == end_) {
      fail(std::string("checkpoint truncated: expected ") + what);
    }
    const char* const start = pos_;
    while (pos_ != end_ && !is_space(*pos_)) ++pos_;
    return {start, static_cast<std::size_t>(pos_ - start)};
  }

  void expect(const char* keyword) {
    const std::string_view token = next(keyword);
    if (token != keyword) {
      fail(std::string("checkpoint corrupt: expected '") + keyword +
           "', found '" + std::string(token) + "'");
    }
  }

  double read_double(const char* what) {
    const std::string_view token = next(what);
    const char* first = token.data();
    const char* const last = first + token.size();
    const bool negative = *first == '-';
    if (negative) ++first;
    // Fast path: [-]0x<hex digit>... handed to from_chars without the
    // prefix (and sign); taken only when it converts the whole token.
    if (last - first > 2 && first[0] == '0' && first[1] == 'x' &&
        hex_value(first[2]) >= 0) {
      double value;
      const auto [ptr, ec] =
          std::from_chars(first + 2, last, value, std::chars_format::hex);
      if (ec == std::errc() && ptr == last) return negative ? -value : value;
    }
    const std::string copy(token);
    char* end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (end == copy.c_str() || *end != '\0') {
      fail(std::string("checkpoint corrupt: bad number '") + copy + "' for " +
           what);
    }
    return value;
  }

  std::size_t read_size(const char* what) {
    const std::string_view token = next(what);
    // Fast path: up to 19 decimal digits cannot overflow 64 bits.
    if (token.size() <= 19) {
      std::uint64_t value = 0;
      std::size_t i = 0;
      for (; i < token.size() && is_digit(token[i]); ++i) {
        value = value * 10 + static_cast<std::uint64_t>(token[i] - '0');
      }
      if (i == token.size()) return static_cast<std::size_t>(value);
    }
    const std::string copy(token);
    char* end = nullptr;
    const unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
    if (end == copy.c_str() || *end != '\0' || copy.front() == '-') {
      fail(std::string("checkpoint corrupt: bad count '") + copy + "' for " +
           what);
    }
    return static_cast<std::size_t>(value);
  }

  bool read_bool(const char* what) {
    const std::size_t v = read_size(what);
    if (v > 1) {
      fail(std::string("checkpoint corrupt: bad flag for ") + what);
    }
    return v == 1;
  }

  Rating read_rating() {
    Rating r;
    r.time = read_double("rating time");
    r.value = read_double("rating value");
    r.rater = static_cast<RaterId>(read_size("rating rater"));
    r.product = static_cast<ProductId>(read_size("rating product"));
    const std::size_t label = read_size("rating label");
    if (label > static_cast<std::size_t>(RatingLabel::kCollaborative2)) {
      fail("checkpoint corrupt: unknown rating label");
    }
    r.label = static_cast<RatingLabel>(label);
    return r;
  }

  /// Inverse of TextWriter::put_detail.
  std::string read_detail() {
    const std::string_view token = next("quarantine detail");
    if (token == "-") return {};
    std::string out;
    out.reserve(token.size());
    for (std::size_t i = 0; i < token.size(); ++i) {
      if (token[i] != '%') {
        out += token[i];
        continue;
      }
      if (i + 2 >= token.size() || hex_value(token[i + 1]) < 0 ||
          hex_value(token[i + 2]) < 0) {
        fail("checkpoint corrupt: bad escape in quarantine detail '" +
             std::string(token) + "'");
      }
      out += static_cast<char>(16 * hex_value(token[i + 1]) +
                               hex_value(token[i + 2]));
      i += 2;
    }
    return out;
  }

  /// Consumes a `crc <name> <hex8>` line (v3+). The checksum itself was
  /// verified against the raw bytes before parsing began; this enforces
  /// only that the line is structurally where the format says it is.
  void consume_crc(std::string_view section) {
    expect("crc");
    const std::string_view name = next("crc section name");
    if (name != section) {
      fail(std::string("checkpoint corrupt: crc line names section '") +
           std::string(name) + "', expected '" + std::string(section) + "'");
    }
    next("crc value");
  }

 private:
  const char* pos_;
  const char* end_;
  std::size_t line_ = 1;
  std::size_t token_line_ = 1;
};

/// Verifies every `crc <name> <hex8>` section checksum and the trailing
/// `filecrc <hex8>` of a version-3+ checkpoint against the raw bytes.
/// Section coverage: from the byte after the previous crc line (the byte
/// after the header line for the first section) up to the start of the crc
/// line. filecrc covers everything from the first byte up to the start of
/// the filecrc line. Throws CheckpointError naming the section and line.
void verify_section_checksums(std::string_view text) {
  const auto matches = [](std::uint32_t crc, std::string_view hex) {
    return hex == crc32c_hex(crc);
  };
  std::size_t line_start = 0;
  std::size_t line_number = 0;
  std::size_t section_start = std::string_view::npos;  // set after the header
  bool file_checked = false;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    ++line_number;
    const std::string_view line =
        text.substr(line_start, line_end - line_start);
    std::size_t at = 0;
    if (line_number == 1) {
      section_start = line_end + 1;  // first section begins after the header
    } else if (line.starts_with("crc ")) {
      next_field(line, at);
      const std::string_view name = next_field(line, at);
      const std::string_view hex = next_field(line, at);
      if (section_start == std::string_view::npos ||
          section_start > line_start) {
        throw CheckpointError("checkpoint corrupt: stray crc line (line " +
                              std::to_string(line_number) + ")");
      }
      if (!matches(crc32c(text.substr(section_start,
                                      line_start - section_start)),
                   hex)) {
        throw CheckpointError("checkpoint corrupt: section '" +
                              std::string(name) +
                              "' fails its checksum (crc line " +
                              std::to_string(line_number) + ")");
      }
      section_start = line_end + 1;
    } else if (line.starts_with("filecrc ")) {
      next_field(line, at);
      if (!matches(crc32c(text.substr(0, line_start)), next_field(line, at))) {
        throw CheckpointError(
            "checkpoint corrupt: whole-file checksum mismatch (filecrc line " +
            std::to_string(line_number) + ")");
      }
      file_checked = true;
    }
    line_start = line_end + 1;
  }
  if (!file_checked) {
    throw CheckpointError(
        "checkpoint truncated: version 3+ requires a filecrc line");
  }
}

/// Parses one `pending ...` body into the (global) snapshot map, failing on
/// a product that already has pending state (a cross-shard duplicate).
void parse_pending_body(TokenReader& reader, StreamSnapshot& s) {
  reader.expect("pending");
  const std::size_t pending_products = reader.read_size("pending products");
  for (std::size_t i = 0; i < pending_products; ++i) {
    const auto product =
        static_cast<ProductId>(reader.read_size("pending product"));
    const auto [slot, inserted] = s.pending.try_emplace(product);
    if (!inserted) {
      reader.fail("checkpoint corrupt: product " + std::to_string(product) +
                  " pending in two shards");
    }
    const std::size_t count = reader.read_size("pending count");
    RatingSeries& series = slot->second;
    series.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      series.push_back(reader.read_rating());
    }
  }
}

void parse_retained_body(TokenReader& reader, StreamSnapshot& s) {
  reader.expect("retained");
  const std::size_t retained_products = reader.read_size("retained products");
  for (std::size_t i = 0; i < retained_products; ++i) {
    const auto product =
        static_cast<ProductId>(reader.read_size("retained product"));
    const auto [slot, inserted] = s.retained.try_emplace(product);
    if (!inserted) {
      reader.fail("checkpoint corrupt: product " + std::to_string(product) +
                  " retained in two shards");
    }
    const std::size_t epochs = reader.read_size("retained epochs");
    slot->second.resize(epochs);
    for (RatingSeries& epoch : slot->second) {
      const std::size_t count = reader.read_size("retained epoch count");
      epoch.reserve(count);
      for (std::size_t k = 0; k < count; ++k) {
        epoch.push_back(reader.read_rating());
      }
    }
  }
}

/// Reads an istream to its end into one string, sized up front when the
/// stream can report its length.
std::string read_all(std::istream& in) {
  std::string text;
  std::streambuf* const buf = in.rdbuf();
  if (buf == nullptr) return text;
  const auto here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  const auto end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  if (here != std::streampos(-1) && end != std::streampos(-1) && end > here &&
      buf->pubseekpos(here, std::ios::in) == here) {
    text.resize(static_cast<std::size_t>(end - here));
    text.resize(static_cast<std::size_t>(
        buf->sgetn(text.data(), static_cast<std::streamsize>(text.size()))));
  }
  char chunk[1 << 16];
  for (std::streamsize n; (n = buf->sgetn(chunk, sizeof chunk)) > 0;) {
    text.append(chunk, static_cast<std::size_t>(n));
  }
  return text;
}

/// The classifier part of a snapshot, for IngestBuffer::restore — without
/// the dead letters, which only the unsharded stream keeps in its
/// classifier.
IngestBuffer::State ingest_state(const StreamSnapshot& snap) {
  IngestBuffer::State state;
  state.stats = snap.stats;
  state.anchored = snap.ingest_anchored;
  state.max_time = snap.ingest_max_time;
  state.buffer = snap.buffer;
  state.seen = snap.seen;
  return state;
}

}  // namespace

/// Grants the checkpoint serializer access to the streaming internals; this
/// is the single place that knows how to move state in and out of a live
/// stream (the wire format itself lives in render_checkpoint and
/// parse_checkpoint below).
struct CheckpointAccess {
  static StreamSnapshot take(const StreamingRatingSystem& s) {
    StreamSnapshot snap;
    snap.epoch_days = s.epoch_days_;
    snap.retention_epochs = s.retention_epochs_;
    IngestBuffer::State ing = s.ingest_.snapshot();
    snap.ingest_config = s.ingest_.config();

    snap.anchored = s.anchored_;
    snap.epoch_start = s.epoch_start_;
    snap.last_time = s.last_time_;
    snap.epochs_closed = s.epochs_closed_;
    snap.skipped_empty_epochs = s.skipped_empty_epochs_;
    snap.system_epochs = s.system_.epochs_processed();

    snap.stats = ing.stats;
    snap.health = s.epoch_health_;

    snap.ingest_anchored = ing.anchored;
    snap.ingest_max_time = ing.max_time;
    snap.buffer = std::move(ing.buffer);
    snap.seen = std::move(ing.seen);
    snap.quarantine = std::move(ing.quarantine);

    for (const auto& [product, series] : s.pending_) {
      snap.pending[product] = series;
    }
    for (const auto& [product, retained] : s.retained_) {
      snap.retained[product] = retained.epochs;
    }

    const auto& records = s.system_.trust_store().records();
    snap.trust.reserve(records.size());
    for (const auto& [id, record] : records) {
      snap.trust.push_back({id, record});
    }
    std::sort(snap.trust.begin(), snap.trust.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return snap;
  }

  static StreamingRatingSystem restore(const StreamSnapshot& snap,
                                       const SystemConfig& config) {
    StreamingRatingSystem s(config, snap.epoch_days, snap.retention_epochs,
                            snap.ingest_config);
    s.anchored_ = snap.anchored;
    s.epoch_start_ = snap.epoch_start;
    s.last_time_ = snap.last_time;
    s.epochs_closed_ = snap.epochs_closed;
    s.skipped_empty_epochs_ = snap.skipped_empty_epochs;
    s.epoch_health_ = snap.health;

    IngestBuffer::State ing = ingest_state(snap);
    ing.quarantine = snap.quarantine;
    s.ingest_.restore(ing);

    for (const auto& [product, series] : snap.pending) {
      s.pending_[product] = series;
    }
    for (const auto& [product, epochs] : snap.retained) {
      s.retained_[product].epochs = epochs;
    }

    trust::TrustStore store;
    for (const auto& [id, record] : snap.trust) {
      store.record(id) = record;
    }
    s.system_.restore(std::move(store), snap.system_epochs);

    // Observers are not checkpoint state; arm the one-shot audit warning
    // that fires if nobody re-attaches one before the next epoch close
    // (core/streaming.cpp). In-memory flag only — the format is unchanged.
    s.observer_restore_warning_pending_ = true;
    return s;
  }

  static StreamSnapshot take_sharded(shard::ShardedRatingSystem& sys) {
    sys.quiesce();
    StreamSnapshot snap;
    snap.epoch_days = sys.epoch_days_;
    snap.retention_epochs = sys.retention_epochs_;
    IngestBuffer::State ing = sys.ingest_.snapshot();
    snap.ingest_config = sys.ingest_.config();

    snap.anchored = sys.anchored_;
    snap.epoch_start = sys.epoch_start_;
    snap.last_time = sys.last_time_;
    snap.epochs_closed = sys.epochs_closed_;
    snap.skipped_empty_epochs = sys.skipped_empty_epochs_;
    snap.system_epochs = sys.merge_.epochs_processed();

    snap.stats = ing.stats;
    snap.health = sys.epoch_health_;

    snap.ingest_anchored = ing.anchored;
    snap.ingest_max_time = ing.max_time;
    snap.buffer = std::move(ing.buffer);
    snap.seen = std::move(ing.seen);

    // The sharded system's quarantine sink bypasses the classifier's own
    // store, so the dead letters live per shard; merge them back into
    // global arrival order by their global ordinal.
    std::vector<const shard::ShardedRatingSystem::DeadLetter*> dead;
    for (const auto& sh : sys.shards_) {
      for (const auto& d : sh->quarantine) dead.push_back(&d);
    }
    std::sort(dead.begin(), dead.end(),
              [](const auto* a, const auto* b) { return a->seq < b->seq; });
    snap.quarantine.reserve(dead.size());
    for (const auto* d : dead) snap.quarantine.push_back(d->entry);

    // Union across shards; std::map restores the canonical product order.
    for (const auto& sh : sys.shards_) {
      for (const auto& [product, series] : sh->pending) {
        snap.pending[product] = series;
      }
      for (const auto& [product, retained] : sh->retained) {
        snap.retained[product] = retained.epochs;
      }
    }

    const auto& records = sys.merge_.trust_store().records();
    snap.trust.reserve(records.size());
    for (const auto& [id, record] : records) {
      snap.trust.push_back({id, record});
    }
    std::sort(snap.trust.begin(), snap.trust.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    snap.shards = sys.shards_.size();
    snap.shard_skipped_cells.reserve(snap.shards);
    for (const auto& sh : sys.shards_) {
      snap.shard_skipped_cells.push_back(sh->skipped_cells);
    }
    return snap;
  }

  static std::unique_ptr<shard::ShardedRatingSystem> restore_sharded(
      const StreamSnapshot& snap, const SystemConfig& config,
      shard::ShardOptions options) {
    // Build unthreaded, fill state on the calling thread, then start the
    // workers — no thread ever observes partially restored shards.
    const bool threaded = options.threaded;
    options.threaded = false;
    auto sys = std::make_unique<shard::ShardedRatingSystem>(
        config, std::move(options), snap.epoch_days, snap.retention_epochs,
        snap.ingest_config);

    sys->anchored_ = snap.anchored;
    sys->epoch_start_ = snap.epoch_start;
    sys->last_time_ = snap.last_time;
    sys->epochs_closed_ = snap.epochs_closed;
    sys->skipped_empty_epochs_ = snap.skipped_empty_epochs;
    sys->epoch_health_ = snap.health;

    // The dead letters go to the shards' stores (below), not the
    // classifier's.
    sys->ingest_.restore(ingest_state(snap));

    // Re-partition under the TARGET layout — the snapshot's shard count
    // (or a pre-shard v3 checkpoint with none at all) need not match.
    std::size_t pending_ratings = 0;
    for (const auto& [product, series] : snap.pending) {
      sys->shards_[sys->shard_index(product)]->pending[product] = series;
      pending_ratings += series.size();
    }
    sys->pending_count_ = pending_ratings;
    for (const auto& [product, epochs] : snap.retained) {
      sys->shards_[sys->shard_index(product)]->retained[product].epochs =
          epochs;
    }

    // Dead letters re-shard in global arrival order; relative order within
    // a shard is all the merge needs, and every future ordinal (>= the
    // quarantined counter) sorts after these.
    for (std::size_t i = 0; i < snap.quarantine.size(); ++i) {
      QuarantinedRating entry = snap.quarantine[i];
      const std::size_t k = sys->shard_index(entry.rating.product);
      sys->add_dead_letter(*sys->shards_[k], std::move(entry),
                           static_cast<std::uint64_t>(i));
    }

    // Skipped-cell counters are layout-scoped diagnostics: only meaningful
    // when the layout survives the round trip.
    if (snap.shards == sys->shards_.size() &&
        snap.shard_skipped_cells.size() == sys->shards_.size()) {
      for (std::size_t k = 0; k < sys->shards_.size(); ++k) {
        sys->shards_[k]->skipped_cells = snap.shard_skipped_cells[k];
        sys->shards_[k]->skipped_cells_pub.store(snap.shard_skipped_cells[k],
                                                 std::memory_order_relaxed);
      }
    }

    trust::TrustStore store;
    for (const auto& [id, record] : snap.trust) {
      store.record(id) = record;
    }
    sys->merge_.restore(std::move(store), snap.system_epochs);

    if (threaded) {
      sys->options_.threaded = true;
      sys->start_threads();
    }
    return sys;
  }
};

StreamSnapshot take_snapshot(const StreamingRatingSystem& stream) {
  return CheckpointAccess::take(stream);
}

StreamingRatingSystem restore_stream(const StreamSnapshot& snapshot,
                                     const SystemConfig& config) {
  return CheckpointAccess::restore(snapshot, config);
}

StreamSnapshot parse_checkpoint(std::string_view text) {
  // Header peek: the version decides whether checksums exist to verify
  // before token parsing starts. Like an extracting >>, the peek reads
  // the version's leading number and ignores what follows it.
  {
    std::size_t at = 0;
    const std::string_view magic = next_field(text, at);
    const std::string version(next_field(text, at));
    char* end = nullptr;
    const unsigned long long number = std::strtoull(version.c_str(), &end, 10);
    if (magic == "trustrate-checkpoint" && end != version.c_str() &&
        number != ULLONG_MAX && number >= 3) {
      verify_section_checksums(text);
    }
  }

  TokenReader reader(text);
  reader.expect("trustrate-checkpoint");
  const std::size_t version = reader.read_size("version");
  if (version < 1 ||
      version > static_cast<std::size_t>(kShardedCheckpointVersion)) {
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version));
  }
  const bool checksummed = version >= 3;
  const bool sharded = version >= 4;

  StreamSnapshot s;
  reader.expect("config");
  s.epoch_days = reader.read_double("epoch_days");
  s.retention_epochs = reader.read_size("retention_epochs");
  s.ingest_config.max_lateness_days = reader.read_double("max_lateness_days");
  s.ingest_config.max_quarantine = reader.read_size("max_quarantine");
  if (checksummed) reader.consume_crc("config");

  reader.expect("anchor");
  s.anchored = reader.read_bool("anchored");
  s.epoch_start = reader.read_double("epoch_start");
  s.last_time = reader.read_double("last_time");
  s.epochs_closed = reader.read_size("epochs_closed");
  if (version >= 2) {
    s.skipped_empty_epochs = reader.read_size("skipped_empty_epochs");
  }
  s.system_epochs = reader.read_size("system_epochs");
  if (checksummed) reader.consume_crc("anchor");

  reader.expect("stats");
  s.stats.submitted = reader.read_size("submitted");
  s.stats.accepted = reader.read_size("accepted");
  s.stats.reordered = reader.read_size("reordered");
  s.stats.duplicates = reader.read_size("duplicates");
  s.stats.dropped_late = reader.read_size("dropped_late");
  s.stats.malformed = reader.read_size("malformed");
  s.stats.quarantined = reader.read_size("quarantined");
  if (checksummed) reader.consume_crc("stats");

  reader.expect("health");
  const std::size_t health_count = reader.read_size("health count");
  s.health.reserve(health_count);
  for (std::size_t i = 0; i < health_count; ++i) {
    const std::size_t h = reader.read_size("health flag");
    if (h > static_cast<std::size_t>(EpochHealth::kDegradedDetector)) {
      reader.fail("checkpoint corrupt: unknown epoch health flag");
    }
    s.health.push_back(static_cast<EpochHealth>(h));
  }
  if (checksummed) reader.consume_crc("health");

  reader.expect("ingest");
  s.ingest_anchored = reader.read_bool("ingest anchored");
  s.ingest_max_time = reader.read_double("ingest max_time");
  reader.expect("buffer");
  const std::size_t buffered = reader.read_size("buffer count");
  s.buffer.reserve(buffered);
  for (std::size_t i = 0; i < buffered; ++i) {
    s.buffer.push_back(reader.read_rating());
  }
  reader.expect("seen");
  const std::size_t seen = reader.read_size("seen count");
  s.seen.reserve(seen);
  for (std::size_t i = 0; i < seen; ++i) {
    const double time = reader.read_double("seen time");
    const auto rater = static_cast<RaterId>(reader.read_size("seen rater"));
    const auto product =
        static_cast<ProductId>(reader.read_size("seen product"));
    const double value = reader.read_double("seen value");
    s.seen.push_back({time, rater, product, value});
  }
  reader.expect("quarantine");
  const std::size_t quarantined = reader.read_size("quarantine count");
  s.quarantine.reserve(quarantined);
  for (std::size_t i = 0; i < quarantined; ++i) {
    const std::size_t reason = reader.read_size("quarantine reason");
    if (reason > static_cast<std::size_t>(IngestClass::kMalformed)) {
      reader.fail("checkpoint corrupt: unknown quarantine reason");
    }
    const Rating rating = reader.read_rating();
    // v1/v2 dropped the diagnostic detail; v3+ carries it escaped.
    std::string detail = checksummed ? reader.read_detail() : std::string{};
    s.quarantine.push_back(
        {rating, static_cast<IngestClass>(reason), std::move(detail)});
  }
  if (checksummed) reader.consume_crc("ingest");

  if (sharded) {
    reader.expect("layout");
    s.shards = reader.read_size("shard count");
    if (s.shards == 0) {
      reader.fail("checkpoint corrupt: zero-shard layout");
    }
    s.shard_skipped_cells.reserve(s.shards);
    for (std::size_t k = 0; k < s.shards; ++k) {
      s.shard_skipped_cells.push_back(reader.read_size("shard skipped cells"));
    }
    reader.consume_crc("layout");
    for (std::size_t k = 0; k < s.shards; ++k) {
      reader.expect("shard");
      const std::size_t index = reader.read_size("shard index");
      if (index != k) {
        reader.fail("checkpoint corrupt: shard sections out of order");
      }
      parse_pending_body(reader, s);
      parse_retained_body(reader, s);
      reader.consume_crc("shard" + std::to_string(k));
    }
  } else {
    parse_pending_body(reader, s);
    if (checksummed) reader.consume_crc("pending");
    parse_retained_body(reader, s);
    if (checksummed) reader.consume_crc("retained");
  }

  reader.expect("trust");
  const std::size_t raters = reader.read_size("trust count");
  s.trust.reserve(raters);
  for (std::size_t i = 0; i < raters; ++i) {
    const auto id = static_cast<RaterId>(reader.read_size("trust rater"));
    trust::TrustRecord record;
    record.successes = reader.read_double("trust successes");
    record.failures = reader.read_double("trust failures");
    if (!s.trust.empty() && s.trust.back().first >= id) {
      // The writer sorts raters, so an order violation is corruption (and a
      // duplicate is the equality case of the same check).
      reader.fail("checkpoint corrupt: trust raters out of order at " +
                  std::to_string(id));
    }
    s.trust.push_back({id, record});
  }
  if (checksummed) reader.consume_crc("trust");

  if (checksummed) {
    reader.expect("filecrc");
    reader.next("filecrc value");
  }
  reader.expect("end");
  return s;
}

std::string render_checkpoint(const StreamSnapshot& s, int version) {
  TRUSTRATE_EXPECTS(version == kCheckpointVersion ||
                        version == kShardedCheckpointVersion,
                    "render_checkpoint renders version 3 or 4 only");
  std::string text;
  text.reserve(estimate_size(s));
  TextWriter w(text);
  w.line("trustrate-checkpoint", version);
  w.begin_section();

  w.line("config", s.epoch_days, s.retention_epochs,
         s.ingest_config.max_lateness_days, s.ingest_config.max_quarantine);
  w.end_section("config");

  w.line("anchor", s.anchored, s.epoch_start, s.last_time, s.epochs_closed,
         s.skipped_empty_epochs, s.system_epochs);
  w.end_section("anchor");

  w.line("stats", s.stats.submitted, s.stats.accepted, s.stats.reordered,
         s.stats.duplicates, s.stats.dropped_late, s.stats.malformed,
         s.stats.quarantined);
  w.end_section("stats");

  w.put("health ");
  w.put(s.health.size());
  for (const EpochHealth h : s.health) {
    w.put(' ');
    w.put(static_cast<unsigned>(h));
  }
  w.put('\n');
  w.end_section("health");

  w.line("ingest", s.ingest_anchored, s.ingest_max_time);
  w.line("buffer", s.buffer.size());
  for (const Rating& r : s.buffer) w.line(r);
  w.line("seen", s.seen.size());
  for (const auto& [time, rater, product, value] : s.seen) {
    w.line(time, rater, product, value);
  }
  w.line("quarantine", s.quarantine.size());
  for (const QuarantinedRating& q : s.quarantine) {
    w.put(static_cast<unsigned>(q.reason));
    w.put(' ');
    w.put(q.rating);
    w.put(' ');
    w.put_detail(q.detail);
    w.put('\n');
  }
  w.end_section("ingest");

  // Sorted (product, payload) views shared by both layouts.
  std::vector<PendingRef> pending;
  pending.reserve(s.pending.size());
  for (const auto& [product, series] : s.pending) {
    pending.push_back({product, &series});
  }
  std::vector<RetainedRef> retained;
  retained.reserve(s.retained.size());
  for (const auto& [product, epochs] : s.retained) {
    retained.push_back({product, &epochs});
  }

  if (version == kShardedCheckpointVersion) {
    // `layout N skip0 .. skipN-1`: the saved shard count and its per-shard
    // skipped-cell diagnostics. An unsharded snapshot writes as one shard.
    const std::size_t shards = s.shards == 0 ? 1 : s.shards;
    w.put("layout ");
    w.put(shards);
    for (std::size_t k = 0; k < shards; ++k) {
      w.put(' ');
      w.put(k < s.shard_skipped_cells.size() ? s.shard_skipped_cells[k] : 0);
    }
    w.put('\n');
    w.end_section("layout");

    // One section per shard: the shard's slice of pending/retained, in
    // global sorted-product order (stable partition of a sorted list).
    std::vector<PendingRef> shard_pending;
    std::vector<RetainedRef> shard_retained;
    for (std::size_t k = 0; k < shards; ++k) {
      shard_pending.clear();
      for (const PendingRef& p : pending) {
        if (shard::shard_of(p.first, shards) == k) shard_pending.push_back(p);
      }
      shard_retained.clear();
      for (const RetainedRef& r : retained) {
        if (shard::shard_of(r.first, shards) == k) shard_retained.push_back(r);
      }
      w.line("shard", k);
      write_pending_body(w, shard_pending);
      write_retained_body(w, shard_retained);
      w.end_section("shard" + std::to_string(k));
    }
  } else {
    write_pending_body(w, pending);
    w.end_section("pending");
    write_retained_body(w, retained);
    w.end_section("retained");
  }

  w.line("trust", s.trust.size());
  for (const auto& [id, record] : s.trust) {
    w.line(id, record.successes, record.failures);
  }
  w.end_section("trust");
  w.finish();
  return text;
}

void write_checkpoint(const StreamSnapshot& snapshot, int version,
                      std::ostream& out) {
  const std::string text = render_checkpoint(snapshot, version);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void save_checkpoint(const StreamingRatingSystem& stream, std::ostream& out) {
  write_checkpoint(take_snapshot(stream), kCheckpointVersion, out);
}

StreamingRatingSystem load_checkpoint(std::istream& in,
                                      const SystemConfig& config) {
  return restore_stream(parse_checkpoint(read_all(in)), config);
}

// Sharded checkpoint entry points live here because CheckpointAccess is the
// single owner of state movement in and out of live systems; the sharded
// engine's header only declares them.

StreamSnapshot shard::ShardedRatingSystem::snapshot() {
  return CheckpointAccess::take_sharded(*this);
}

void shard::ShardedRatingSystem::save(std::ostream& out) {
  write_checkpoint(snapshot(), kShardedCheckpointVersion, out);
}

std::unique_ptr<shard::ShardedRatingSystem> shard::ShardedRatingSystem::
    from_snapshot(const StreamSnapshot& snapshot, const SystemConfig& config,
                  ShardOptions options) {
  return CheckpointAccess::restore_sharded(snapshot, config,
                                           std::move(options));
}

std::unique_ptr<shard::ShardedRatingSystem> shard::ShardedRatingSystem::load(
    std::istream& in, const SystemConfig& config, ShardOptions options) {
  return CheckpointAccess::restore_sharded(parse_checkpoint(read_all(in)),
                                           config, std::move(options));
}

}  // namespace trustrate::core
