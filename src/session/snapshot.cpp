#include "session/snapshot.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "pref/serialize.h"
#include "util/checksum.h"
#include "util/number.h"

namespace compsynth::session {

namespace {

using util::format_double;
using util::split;

[[noreturn]] void bad(const std::string& what) { throw SnapshotError(what); }

void append_section(std::string& payload, const char* name,
                    const std::string& body) {
  payload += '@';
  payload += name;
  payload += ' ';
  payload += std::to_string(body.size());
  payload += '\n';
  payload += body;
  payload += '\n';
}

// One number of an @synth line, in [lo, hi].
template <typename T>
T synth_number(std::string_view token, const char* what,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  const std::optional<T> v = util::parse_number<T>(token, lo, hi);
  if (!v) {
    bad("@synth section: " + std::string(what) + " '" + std::string(token) +
        "' is not a number in range");
  }
  return *v;
}

// The optional trailing `pending` line: "pending <solver_seconds> <pairs>
// <arity>" then, per pair, the preferred-by-A scenario's metrics and the
// preferred-by-B one's.
void encode_pending_line(std::ostream& os, const synth::PendingPairs& p) {
  const std::size_t arity = p.pairs.front().preferred_by_a.metrics.size();
  os << "pending " << format_double(p.solver_seconds) << ' ' << p.pairs.size()
     << ' ' << arity;
  for (const solver::DistinguishingPair& pair : p.pairs) {
    for (const pref::Scenario* s : {&pair.preferred_by_a, &pair.preferred_by_b}) {
      if (s->metrics.size() != arity) {
        bad("pending pairs have scenarios of differing arity");
      }
      for (const double m : s->metrics) os << ' ' << format_double(m);
    }
  }
  os << '\n';
}

// The @synth section: loop counters + transcript, line oriented. The graph
// tolerance flag rides here so decode knows which mode to deserialize the
// @graph section in (it precedes @graph in the payload).
std::string encode_synth_section(const synth::SessionState& st,
                                 bool tolerant) {
  std::ostringstream os;
  os << "tolerant " << (tolerant ? 1 : 0) << '\n'
     << "iterations " << st.iterations << '\n'
     << "interactions " << st.interactions << '\n'
     << "repair_rounds " << st.repair_rounds << '\n'
     << "total_solver_seconds " << format_double(st.total_solver_seconds)
     << '\n'
     << "oracle_comparisons " << st.oracle_comparisons << '\n'
     << "transcript " << st.transcript.size() << '\n';
  for (const synth::IterationRecord& r : st.transcript) {
    os << "it " << r.index << ' ' << format_double(r.solver_seconds) << ' '
       << r.pairs_presented << ' ' << r.edges_added << ' ' << r.ties_added
       << '\n';
  }
  if (!st.pending.pairs.empty()) encode_pending_line(os, st.pending);
  return os.str();
}

// Parses the pending line (without its newline). The declared counts must
// match the values present exactly, so a truncated line or an absurd count
// fails before any scenario is built.
synth::PendingPairs decode_pending_line(std::string_view line) {
  const std::vector<std::string_view> tokens = split(line, ' ');
  if (tokens[0] != "pending") {
    bad("@synth section: unexpected content after the transcript");
  }
  if (tokens.size() < 4) bad("@synth section: truncated pending line");
  const auto values = static_cast<long long>(tokens.size() - 4);
  synth::PendingPairs p;
  p.solver_seconds =
      synth_number<double>(tokens[1], "pending solver time", 0);
  const auto pairs = synth_number<long long>(tokens[2], "pending pairs", 1);
  const auto arity = synth_number<long long>(tokens[3], "pending arity", 1);
  if (pairs > values || arity > values || pairs * 2 * arity != values) {
    bad("@synth section: pending line declares " + std::string(tokens[2]) +
        " pair(s) of " + std::string(tokens[3]) + " metric(s) but carries " +
        std::to_string(values) + " value(s)");
  }
  std::size_t next = 4;
  const auto scenario = [&] {
    pref::Scenario s;
    s.metrics.reserve(static_cast<std::size_t>(arity));
    for (long long m = 0; m < arity; ++m) {
      s.metrics.push_back(synth_number<double>(tokens[next++], "pending metric"));
    }
    return s;
  };
  p.pairs.reserve(static_cast<std::size_t>(pairs));
  for (long long i = 0; i < pairs; ++i) {
    solver::DistinguishingPair pair;
    pair.preferred_by_a = scenario();
    pair.preferred_by_b = scenario();
    p.pairs.push_back(std::move(pair));
  }
  return p;
}

// Fills everything but the graph (which needs the tolerance flag first);
// returns that flag. Every line is "<tag> <value>", then `transcript` many
// "it" records, then at most the pending line. Anything else is refused,
// not skipped: a line this reader does not know could change how the run
// continues. The section must re-encode to exactly its bytes, so a decoded
// state always encodes back to the file it came from.
bool decode_synth_section(const std::string& body, synth::SessionState& st) {
  if (body.empty() || body.back() != '\n') {
    bad("@synth section: not newline-terminated");
  }
  std::vector<std::string_view> lines =
      split(std::string_view(body).substr(0, body.size() - 1), '\n');
  std::size_t next = 0;
  const auto field = [&](const char* tag) {
    const std::string prefix = std::string(tag) + ' ';
    if (next == lines.size() || lines[next].substr(0, prefix.size()) != prefix) {
      bad(std::string("@synth section: expected '") + tag + "'");
    }
    return lines[next++].substr(prefix.size());
  };
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  const bool tolerant = synth_number(field("tolerant"), "tolerant", 0, 1) != 0;
  st.iterations = synth_number(field("iterations"), "iterations", 0, kMaxInt);
  st.interactions =
      synth_number(field("interactions"), "interactions", 0, kMaxInt);
  st.repair_rounds =
      synth_number(field("repair_rounds"), "repair_rounds", 0, kMaxInt);
  st.total_solver_seconds = synth_number<double>(
      field("total_solver_seconds"), "total_solver_seconds", 0);
  st.oracle_comparisons = synth_number<long>(
      field("oracle_comparisons"), "oracle_comparisons", 0);
  // Bounded by the lines present before anything is reserved.
  const auto records = synth_number<std::size_t>(
      field("transcript"), "transcript count", 0, lines.size() - next);
  st.transcript.clear();
  st.transcript.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    const std::vector<std::string_view> t = split(lines[next++], ' ');
    if (t.size() != 6 || t[0] != "it") {
      bad("@synth section: malformed transcript record");
    }
    synth::IterationRecord r;
    r.index = synth_number(t[1], "record index", 0, kMaxInt);
    r.solver_seconds = synth_number<double>(t[2], "record solver time", 0);
    r.pairs_presented = synth_number(t[3], "record pairs", 0, kMaxInt);
    r.edges_added = synth_number(t[4], "record edges", 0, kMaxInt);
    r.ties_added = synth_number(t[5], "record ties", 0, kMaxInt);
    st.transcript.push_back(r);
  }
  st.pending = next < lines.size() ? decode_pending_line(lines[next++])
                                   : synth::PendingPairs{};
  if (next != lines.size()) {
    bad("@synth section: unexpected content after the transcript");
  }
  if (encode_synth_section(st, tolerant) != body) {
    bad("@synth section: non-canonical");
  }
  return tolerant;
}

// Reads one "@name <bytes>" section at `pos`, advancing it. The expected
// order is fixed; a missing or out-of-order section is a hard error.
std::string take_section(const std::string& payload, std::size_t& pos,
                         const char* name) {
  const std::size_t eol = payload.find('\n', pos);
  if (eol == std::string::npos) bad("truncated payload (no section header)");
  const std::string_view header(payload.data() + pos, eol - pos);
  const std::string tag = "@" + std::string(name) + " ";
  const std::optional<std::size_t> bytes =
      header.substr(0, tag.size()) == tag
          ? util::parse_number<std::size_t>(header.substr(tag.size()))
          : std::nullopt;
  if (!bytes) {
    bad("expected section '@" + std::string(name) + "', found '" +
        std::string(header) + "'");
  }
  pos = eol + 1;
  if (*bytes >= payload.size() - pos) {
    bad("section '@" + std::string(name) + "' overruns the payload");
  }
  std::string body = payload.substr(pos, *bytes);
  pos += *bytes;
  if (payload[pos] != '\n') {
    bad("section '@" + std::string(name) + "' is not newline-terminated");
  }
  ++pos;
  return body;
}

}  // namespace

std::string encode(const Snapshot& snap) {
  std::string payload;
  append_section(payload, "synth",
                 encode_synth_section(snap.state,
                                      snap.state.graph.allows_inconsistent()));
  append_section(payload, "graph", pref::serialize(snap.state.graph));
  append_section(payload, "finder", snap.state.finder_state);
  append_section(payload, "oracle", snap.state.oracle_state);
  // Kept for format v2 compatibility: no solver cache exists any more, so
  // the section is always empty.
  append_section(payload, "cache", "");

  if (snap.meta.seed > static_cast<std::uint64_t>(obs::kJsonMaxExactInt)) {
    bad("seed " + std::to_string(snap.meta.seed) +
        " exceeds 2^53, the largest a manifest holds exactly");
  }
  obs::JsonWriter manifest;
  manifest.integer("v", kSnapshotFormatVersion)
      .str("sketch", snap.meta.sketch)
      .str("backend", snap.meta.backend)
      .integer("seed", static_cast<long long>(snap.meta.seed))
      .integer("iteration", snap.meta.iteration)
      .str("run", snap.meta.run_id)
      .integer("payload_bytes", static_cast<long long>(payload.size()))
      .str("payload_crc32", util::crc32_hex(util::crc32(payload)));
  return std::string(kSnapshotMagic) + ' ' +
         std::to_string(kSnapshotFormatVersion) + '\n' + manifest.done() +
         '\n' + payload;
}

Snapshot decode(const std::string& bytes) {
  // Line 1: magic + version.
  const std::size_t magic_eol = bytes.find('\n');
  if (magic_eol == std::string::npos) bad("missing magic line");
  const std::string magic = std::string(kSnapshotMagic) + ' ';
  const std::optional<int> version =
      bytes.compare(0, magic.size(), magic) == 0
          ? util::parse_number<int>(std::string_view(bytes).substr(
                magic.size(), magic_eol - magic.size()))
          : std::nullopt;
  if (!version) bad("not a compsynth snapshot (bad magic)");
  if (*version != 1 && *version != kSnapshotFormatVersion) {
    bad("snapshot format version " + std::to_string(*version) +
        " is not supported by this build (supported: 1.." +
        std::to_string(kSnapshotFormatVersion) +
        "); it was written by a newer compsynth");
  }

  // Line 2: flat-JSON manifest.
  const std::size_t manifest_eol = bytes.find('\n', magic_eol + 1);
  if (manifest_eol == std::string::npos) bad("missing manifest line");
  const auto manifest = obs::parse_flat_json(
      std::string_view(bytes).substr(magic_eol + 1,
                                     manifest_eol - magic_eol - 1));
  if (!manifest) bad("manifest line is not valid flat JSON");
  // Every field is required; a failed read leaves its default and f.error().
  obs::JsonFields f(*manifest, obs::JsonFields::Absent::kError);
  Snapshot snap;
  snap.meta.version = *version;
  const long long v = f.integer("v", 1, kSnapshotFormatVersion).value_or(0);
  snap.meta.sketch = f.string("sketch").value_or("");
  snap.meta.backend = f.string("backend").value_or("");
  snap.meta.seed = f.integer("seed", 0, obs::kJsonMaxExactInt).value_or(0);
  snap.meta.iteration = static_cast<int>(
      f.integer("iteration", 0, std::numeric_limits<int>::max()).value_or(0));
  snap.meta.run_id = f.string("run").value_or("");
  const long long declared =
      f.integer("payload_bytes", 0, obs::kJsonMaxExactInt).value_or(0);
  const std::string crc = f.string("payload_crc32").value_or("");
  if (!f.ok()) bad("manifest: " + f.error());
  if (v != *version) {
    bad("manifest: field 'v' is " + std::to_string(v) +
        " but the magic line says " + std::to_string(*version));
  }

  // Integrity: declared length first (catches truncation cheaply), then the
  // CRC over the payload (catches torn/garbled middles).
  const std::string payload = bytes.substr(manifest_eol + 1);
  if (static_cast<long long>(payload.size()) != declared) {
    bad("payload is " + std::to_string(payload.size()) +
        " bytes, manifest declares " + std::to_string(declared) +
        " (torn write?)");
  }
  if (util::crc32_hex(util::crc32(payload)) != crc) {
    bad("payload CRC mismatch (torn or corrupted write)");
  }

  std::size_t pos = 0;
  const std::string synth_body = take_section(payload, pos, "synth");
  const std::string graph_body = take_section(payload, pos, "graph");
  snap.state.finder_state = take_section(payload, pos, "finder");
  snap.state.oracle_state = take_section(payload, pos, "oracle");
  // v1 snapshots lack the @cache section. A v2 one is read and its
  // contents discarded: snapshots written while a solver cache existed carry
  // cache entries, which were only ever a pure accelerator.
  if (snap.meta.version >= 2) take_section(payload, pos, "cache");
  if (pos != payload.size()) bad("trailing bytes after the last section");

  const bool tolerant = decode_synth_section(synth_body, snap.state);
  try {
    snap.state.graph = pref::deserialize(graph_body, tolerant);
  } catch (const pref::SerializeError& e) {
    bad(std::string("@graph section: ") + e.what());
  }
  return snap;
}

void write_file(const Snapshot& snap, const std::string& path) {
  const std::string bytes = encode(snap);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) bad("cannot open '" + tmp + "' for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) bad("short write to '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    bad("cannot rename '" + tmp + "' over '" + path + "'");
  }
}

Snapshot read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) bad("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) bad("I/O error reading '" + path + "'");
  try {
    return decode(buffer.str());
  } catch (const SnapshotError& e) {
    bad("'" + path + "': " + e.what());
  }
}

}  // namespace compsynth::session
