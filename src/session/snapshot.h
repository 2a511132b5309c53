// Durable session snapshots: the on-disk form of synth::SessionState.
//
// A synthesis session can span hours of human attention; losing it to a
// crash means re-asking every preference question. A snapshot captures the
// complete mid-run state — preference graph, loop counters and transcript,
// the finder's opaque state blob (RNG stream, version-space bitmap or query
// counters) and the oracle's (interaction counters, per-variant RNG streams)
// — such that Synthesizer::resume continues the identical run.
//
// File layout (docs/PERSISTENCE.md is the field-by-field reference):
//
//   COMPSYNTH-SNAPSHOT 2
//   {"v":2,"sketch":"swan","backend":"grid","seed":1,"iteration":7,
//    "run":"cli","payload_bytes":N,"payload_crc32":"89abcdef"}
//   @synth <bytes>
//   ...
//   @graph <bytes>
//   ...
//   @finder <bytes>
//   ...
//   @oracle <bytes>
//   ...
//   @cache 0
//
// Line 1 is the magic + format version. Line 2 is a flat JSON manifest
// (parseable with obs::parse_flat_json) whose payload_bytes/payload_crc32
// cover everything after the manifest's newline — a torn write is detected
// by either a short payload or a CRC mismatch, and recovery falls back to
// the previous snapshot. Sections are length-prefixed byte ranges, so blobs
// may contain anything except nothing at all. @cache is always written
// empty; readers discard its contents (older writers stored solver-cache
// entries there).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "synth/synthesizer.h"

namespace compsynth::session {

/// Thrown on malformed, truncated, corrupt or incompatible snapshots.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Format version written to line 1. Readers accept exactly the versions
/// they know; a higher version fails with a "newer writer" SnapshotError
/// rather than guessing (docs/PERSISTENCE.md §Versioning).
/// v2 appended the @cache section; v1 files, which lack it, still decode.
inline constexpr int kSnapshotFormatVersion = 2;

inline constexpr char kSnapshotMagic[] = "COMPSYNTH-SNAPSHOT";

/// Snapshot files use this extension; recovery scans for it.
inline constexpr char kSnapshotExtension[] = ".csnap";

/// Identity of the run a snapshot belongs to. Resume validates sketch /
/// backend / seed against the resuming configuration — continuing a SWAN
/// session against an ABR sketch must fail loudly, not subtly.
struct SnapshotMeta {
  int version = kSnapshotFormatVersion;
  std::string sketch;   ///< sketch name (sketch::Sketch::name)
  std::string backend;  ///< "grid", "z3", ... — free-form back-end tag
  std::uint64_t seed = 0;
  std::string run_id;   ///< obs::RunContext::run_id at capture time
  int iteration = 0;    ///< == state.iterations (duplicated for inspection)
};

struct Snapshot {
  SnapshotMeta meta;
  synth::SessionState state;
};

/// Renders a snapshot to its complete file bytes.
std::string encode(const Snapshot& snap);

/// Parses snapshot bytes; throws SnapshotError on any defect (bad magic,
/// unsupported version, manifest/section syntax, short payload, CRC
/// mismatch, malformed graph).
Snapshot decode(const std::string& bytes);

/// Writes `snap` to `path` atomically: the bytes go to "<path>.tmp" in the
/// same directory, then rename over `path`, so a crash leaves either the old
/// snapshot or the new one — never a torn file. Throws SnapshotError on I/O
/// failure.
void write_file(const Snapshot& snap, const std::string& path);

/// Reads and decodes `path`. Throws SnapshotError on I/O failure or any
/// decode defect.
Snapshot read_file(const std::string& path);

}  // namespace compsynth::session
