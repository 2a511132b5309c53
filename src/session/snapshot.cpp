#include "session/snapshot.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "pref/serialize.h"
#include "util/checksum.h"

namespace compsynth::session {

namespace {

std::string render_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

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

// The optional trailing `pending` line: "pending <solver_seconds> <pairs>
// <arity>" then, per pair, the preferred-by-A scenario's metrics and the
// preferred-by-B one's.
void encode_pending_line(std::ostream& os, const synth::PendingPairs& p) {
  const std::size_t arity = p.pairs.front().preferred_by_a.metrics.size();
  os << "pending " << render_double(p.solver_seconds) << ' ' << p.pairs.size()
     << ' ' << arity;
  for (const solver::DistinguishingPair& pair : p.pairs) {
    for (const pref::Scenario* s : {&pair.preferred_by_a, &pair.preferred_by_b}) {
      if (s->metrics.size() != arity) {
        bad("pending pairs have scenarios of differing arity");
      }
      for (const double m : s->metrics) os << ' ' << render_double(m);
    }
  }
  os << '\n';
}

// The @synth section: loop counters + transcript, line oriented. The graph
// tolerance flag rides here so decode knows which mode to deserialize the
// @graph section in (it precedes @graph in the payload).
std::string encode_synth_section(const synth::SessionState& st) {
  std::ostringstream os;
  os << "tolerant " << (st.graph.allows_inconsistent() ? 1 : 0) << '\n'
     << "iterations " << st.iterations << '\n'
     << "interactions " << st.interactions << '\n'
     << "repair_rounds " << st.repair_rounds << '\n'
     << "total_solver_seconds " << render_double(st.total_solver_seconds)
     << '\n'
     << "oracle_comparisons " << st.oracle_comparisons << '\n'
     << "transcript " << st.transcript.size() << '\n';
  for (const synth::IterationRecord& r : st.transcript) {
    os << "it " << r.index << ' ' << render_double(r.solver_seconds) << ' '
       << r.pairs_presented << ' ' << r.edges_added << ' ' << r.ties_added
       << '\n';
  }
  if (!st.pending.pairs.empty()) encode_pending_line(os, st.pending);
  return os.str();
}

long read_counter(std::istream& in, const char* tag) {
  std::string seen;
  long value = 0;
  if (!(in >> seen >> value) || seen != tag) {
    bad(std::string("@synth section: expected '") + tag + "' counter");
  }
  return value;
}

template <typename T>
T parse_pending_number(const std::string& token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    bad("@synth section: malformed number '" + token + "' in the pending line");
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      bad("@synth section: non-finite number in the pending line");
    }
  }
  return value;
}

// Parses the text after the transcript's last line: the pending line and
// nothing else. The declared counts must match the values present exactly,
// so a truncated line or an absurd count fails before any scenario is
// built, and the line must re-render to the same bytes, so a decoded state
// always encodes back to the file it came from.
synth::PendingPairs decode_pending_line(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> tokens;
  for (std::string t; in >> t;) tokens.push_back(std::move(t));
  if (tokens.empty() || tokens[0] != "pending") {
    bad("@synth section: unexpected content after the transcript");
  }
  if (tokens.size() < 4) bad("@synth section: truncated pending line");
  synth::PendingPairs p;
  p.solver_seconds = parse_pending_number<double>(tokens[1]);
  if (p.solver_seconds < 0) bad("@synth section: negative pending solver time");
  const auto pairs = parse_pending_number<long long>(tokens[2]);
  const auto arity = parse_pending_number<long long>(tokens[3]);
  const auto values = static_cast<long long>(tokens.size() - 4);
  if (pairs < 1 || arity < 1 || pairs > values || arity > values ||
      pairs * 2 * arity != values) {
    bad("@synth section: pending line declares " + tokens[2] + " pair(s) of " +
        tokens[3] + " metric(s) but carries " + std::to_string(values) +
        " value(s)");
  }
  std::size_t next = 4;
  const auto scenario = [&] {
    pref::Scenario s;
    s.metrics.reserve(static_cast<std::size_t>(arity));
    for (long long m = 0; m < arity; ++m) {
      s.metrics.push_back(parse_pending_number<double>(tokens[next++]));
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
  std::ostringstream canonical;
  encode_pending_line(canonical, p);
  if (canonical.str() != text) bad("@synth section: non-canonical pending line");
  return p;
}

// Fills everything but the graph (which needs the tolerance flag first);
// returns that flag.
bool decode_synth_section(const std::string& body, synth::SessionState& st) {
  std::istringstream in(body);
  const bool tolerant = read_counter(in, "tolerant") != 0;
  st.iterations = static_cast<int>(read_counter(in, "iterations"));
  st.interactions = static_cast<int>(read_counter(in, "interactions"));
  st.repair_rounds = static_cast<int>(read_counter(in, "repair_rounds"));
  std::string seen;
  if (!(in >> seen >> st.total_solver_seconds) ||
      seen != "total_solver_seconds") {
    bad("@synth section: expected 'total_solver_seconds'");
  }
  st.oracle_comparisons = read_counter(in, "oracle_comparisons");
  const long records = read_counter(in, "transcript");
  if (records < 0) bad("@synth section: negative transcript count");
  st.transcript.clear();
  st.transcript.reserve(static_cast<std::size_t>(records));
  for (long i = 0; i < records; ++i) {
    synth::IterationRecord r;
    if (!(in >> seen >> r.index >> r.solver_seconds >> r.pairs_presented >>
          r.edges_added >> r.ties_added) ||
        seen != "it") {
      bad("@synth section: malformed transcript record");
    }
    st.transcript.push_back(r);
  }
  // After the newline that ends the last record comes at most the optional
  // pending line. Any other content is refused, not skipped: a line this
  // reader does not know could change how the run continues.
  std::string rest{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  if (!rest.empty() && rest.front() == '\n') rest.erase(0, 1);
  st.pending = rest.empty() ? synth::PendingPairs{} : decode_pending_line(rest);
  return tolerant;
}

// Reads one "@name <bytes>" section at `pos`, advancing it. The expected
// order is fixed; a missing or out-of-order section is a hard error.
std::string take_section(const std::string& payload, std::size_t& pos,
                         const char* name) {
  const std::size_t eol = payload.find('\n', pos);
  if (eol == std::string::npos) bad("truncated payload (no section header)");
  const std::string header = payload.substr(pos, eol - pos);
  std::istringstream hs(header);
  std::string seen;
  long long bytes = -1;
  if (!(hs >> seen >> bytes) || seen != std::string("@") + name || bytes < 0) {
    bad("expected section '@" + std::string(name) + "', found '" + header +
        "'");
  }
  pos = eol + 1;
  if (pos + static_cast<std::size_t>(bytes) > payload.size()) {
    bad("section '@" + std::string(name) + "' overruns the payload");
  }
  std::string body = payload.substr(pos, static_cast<std::size_t>(bytes));
  pos += static_cast<std::size_t>(bytes);
  if (pos >= payload.size() || payload[pos] != '\n') {
    bad("section '@" + std::string(name) + "' is not newline-terminated");
  }
  ++pos;
  return body;
}

std::string manifest_string(const obs::JsonObject& manifest, const char* key) {
  const auto it = manifest.find(key);
  if (it == manifest.end() || it->second.kind != obs::JsonValue::Kind::kString) {
    bad(std::string("manifest: missing string field '") + key + "'");
  }
  return it->second.str;
}

double manifest_number(const obs::JsonObject& manifest, const char* key) {
  const auto it = manifest.find(key);
  if (it == manifest.end() || it->second.kind != obs::JsonValue::Kind::kNumber) {
    bad(std::string("manifest: missing numeric field '") + key + "'");
  }
  return it->second.num;
}

}  // namespace

std::string encode(const Snapshot& snap) {
  std::string payload;
  append_section(payload, "synth", encode_synth_section(snap.state));
  append_section(payload, "graph", pref::serialize(snap.state.graph));
  append_section(payload, "finder", snap.state.finder_state);
  append_section(payload, "oracle", snap.state.oracle_state);
  // Kept for format v2 compatibility: no solver cache exists any more, so
  // the section is always empty.
  append_section(payload, "cache", "");

  std::ostringstream os;
  os << kSnapshotMagic << ' ' << kSnapshotFormatVersion << '\n'
     << "{\"v\":" << kSnapshotFormatVersion << ",\"sketch\":\""
     << obs::json_escape(snap.meta.sketch) << "\",\"backend\":\""
     << obs::json_escape(snap.meta.backend) << "\",\"seed\":" << snap.meta.seed
     << ",\"iteration\":" << snap.meta.iteration << ",\"run\":\""
     << obs::json_escape(snap.meta.run_id)
     << "\",\"payload_bytes\":" << payload.size() << ",\"payload_crc32\":\""
     << util::crc32_hex(util::crc32(payload)) << "\"}\n"
     << payload;
  return os.str();
}

Snapshot decode(const std::string& bytes) {
  // Line 1: magic + version.
  const std::size_t magic_eol = bytes.find('\n');
  if (magic_eol == std::string::npos) bad("missing magic line");
  {
    std::istringstream ms(bytes.substr(0, magic_eol));
    std::string magic;
    int version = 0;
    if (!(ms >> magic >> version) || magic != kSnapshotMagic) {
      bad("not a compsynth snapshot (bad magic)");
    }
    if (version != 1 && version != kSnapshotFormatVersion) {
      bad("snapshot format version " + std::to_string(version) +
          " is not supported by this build (supported: 1.." +
          std::to_string(kSnapshotFormatVersion) +
          "); it was written by a newer compsynth");
    }
  }

  // Line 2: flat-JSON manifest.
  const std::size_t manifest_eol = bytes.find('\n', magic_eol + 1);
  if (manifest_eol == std::string::npos) bad("missing manifest line");
  const auto manifest = obs::parse_flat_json(
      bytes.substr(magic_eol + 1, manifest_eol - magic_eol - 1));
  if (!manifest) bad("manifest line is not valid flat JSON");

  Snapshot snap;
  snap.meta.version = static_cast<int>(manifest_number(*manifest, "v"));
  snap.meta.sketch = manifest_string(*manifest, "sketch");
  snap.meta.backend = manifest_string(*manifest, "backend");
  snap.meta.seed =
      static_cast<std::uint64_t>(manifest_number(*manifest, "seed"));
  snap.meta.iteration = static_cast<int>(manifest_number(*manifest, "iteration"));
  snap.meta.run_id = manifest_string(*manifest, "run");

  // Integrity: declared length first (catches truncation cheaply), then the
  // CRC over the payload (catches torn/garbled middles).
  const auto declared =
      static_cast<std::size_t>(manifest_number(*manifest, "payload_bytes"));
  const std::string payload = bytes.substr(manifest_eol + 1);
  if (payload.size() != declared) {
    bad("payload is " + std::to_string(payload.size()) +
        " bytes, manifest declares " + std::to_string(declared) +
        " (torn write?)");
  }
  if (util::crc32_hex(util::crc32(payload)) !=
      manifest_string(*manifest, "payload_crc32")) {
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
