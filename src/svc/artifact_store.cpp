#include "svc/artifact_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "snapshot/checkpoint.hpp"
#include "util/hash.hpp"

namespace dice::svc {

namespace {

using Clock = std::chrono::steady_clock;

struct StoreMetrics {
  obs::Histogram& save_ms;
  obs::Histogram& load_ms;
};

[[nodiscard]] StoreMetrics& store_metrics() {
  static StoreMetrics metrics{
      obs::MetricsRegistry::global().histogram(obs::names::kSvcStoreSaveMs),
      obs::MetricsRegistry::global().histogram(obs::names::kSvcStoreLoadMs)};
  return metrics;
}

constexpr std::uint8_t kFlagQuiesced = 0x01;
constexpr std::uint8_t kFlagOscillationExit = 0x02;
constexpr std::uint8_t kKnownFlags = kFlagQuiesced | kFlagOscillationExit;

void encode_artifact(util::ByteWriter& writer, const LiveStateArtifact& artifact) {
  writer.str(artifact.key.scenario);
  writer.str(artifact.key.implementation);
  writer.u64(artifact.key.seed);
  writer.vu64(artifact.key.bootstrap_events);
  writer.vu32(artifact.key.flip_exit);
  writer.vu64(artifact.resume_at);
  writer.vu64(artifact.bootstrap_executed);
  std::uint8_t flags = 0;
  if (artifact.quiesced) flags |= kFlagQuiesced;
  if (artifact.oscillation_exit) flags |= kFlagOscillationExit;
  writer.u8(flags);
  writer.u64(artifact.cut_hash);
  const snapshot::Snapshot& snap = *artifact.snap;
  writer.vu64(snap.id);
  writer.vu64(snap.taken_at);
  writer.vu64(snap.nodes.size());
  for (const auto& [node, checkpoint] : snap.nodes) {
    writer.vu32(node);
    writer.u64(checkpoint.hash);
    writer.vu64(checkpoint.state.size());
    writer.raw(checkpoint.state);
  }
  writer.vu64(snap.channels.size());
  for (const auto& [channel, frames] : snap.channels) {
    writer.vu32(channel.from);
    writer.vu32(channel.to);
    writer.vu64(frames.size());
    for (const util::Bytes& frame : frames) {
      writer.vu64(frame.size());
      writer.raw(frame);
    }
  }
}

[[nodiscard]] util::Result<LiveStateArtifact> decode_artifact(util::ByteReader& reader) {
  LiveStateArtifact artifact;
  auto scenario = reader.str();
  if (!scenario) return scenario.error();
  artifact.key.scenario = std::move(scenario).take();
  auto implementation = reader.str();
  if (!implementation) return implementation.error();
  artifact.key.implementation = std::move(implementation).take();
  auto seed = reader.u64();
  if (!seed) return seed.error();
  artifact.key.seed = seed.value();
  auto bootstrap_events = reader.vu64();
  if (!bootstrap_events) return bootstrap_events.error();
  artifact.key.bootstrap_events = bootstrap_events.value();
  auto flip_exit = reader.vu32();
  if (!flip_exit) return flip_exit.error();
  artifact.key.flip_exit = flip_exit.value();
  auto resume_at = reader.vu64();
  if (!resume_at) return resume_at.error();
  artifact.resume_at = resume_at.value();
  auto bootstrap_executed = reader.vu64();
  if (!bootstrap_executed) return bootstrap_executed.error();
  artifact.bootstrap_executed = bootstrap_executed.value();
  auto flags = reader.u8();
  if (!flags) return flags.error();
  if ((flags.value() & ~kKnownFlags) != 0) {
    return util::make_error("svc.store.malformed", "undefined artifact flag bits");
  }
  artifact.quiesced = (flags.value() & kFlagQuiesced) != 0;
  artifact.oscillation_exit = (flags.value() & kFlagOscillationExit) != 0;
  auto cut_hash = reader.u64();
  if (!cut_hash) return cut_hash.error();
  artifact.cut_hash = cut_hash.value();
  snapshot::Snapshot snap;
  auto id = reader.vu64();
  if (!id) return id.error();
  snap.id = id.value();
  snap.baseline_id = 0;  // standalone by construction (encode refuses deltas)
  auto taken_at = reader.vu64();
  if (!taken_at) return taken_at.error();
  snap.taken_at = taken_at.value();
  auto node_count = reader.vu64();
  if (!node_count) return node_count.error();
  for (std::uint64_t i = 0; i < node_count.value(); ++i) {
    auto node = reader.vu32();
    if (!node) return node.error();
    snapshot::Checkpoint checkpoint;
    checkpoint.node = node.value();
    auto hash = reader.u64();
    if (!hash) return hash.error();
    checkpoint.hash = hash.value();
    auto state_len = reader.vu64();
    if (!state_len) return state_len.error();
    auto state = reader.raw(state_len.value());
    if (!state) return state.error();
    checkpoint.state.assign(state.value().begin(), state.value().end());
    snap.nodes.emplace(node.value(), std::move(checkpoint));
  }
  auto channel_count = reader.vu64();
  if (!channel_count) return channel_count.error();
  for (std::uint64_t i = 0; i < channel_count.value(); ++i) {
    auto from = reader.vu32();
    if (!from) return from.error();
    auto to = reader.vu32();
    if (!to) return to.error();
    auto frame_count = reader.vu64();
    if (!frame_count) return frame_count.error();
    std::vector<util::Bytes> frames;
    frames.reserve(frame_count.value());
    for (std::uint64_t f = 0; f < frame_count.value(); ++f) {
      auto frame_len = reader.vu64();
      if (!frame_len) return frame_len.error();
      auto frame = reader.raw(frame_len.value());
      if (!frame) return frame.error();
      frames.emplace_back(frame.value().begin(), frame.value().end());
    }
    snap.channels.emplace(snapshot::ChannelKey{from.value(), to.value()},
                          std::move(frames));
  }
  // The checksum guards the bytes; this guards the semantics — a payload
  // regenerated inconsistently (right envelope, wrong snapshot) must fail
  // typed rather than resume a wrong live state.
  if (snap.cut_hash() != artifact.cut_hash) {
    return util::make_error("svc.store.hash_mismatch",
                            "snapshot cut hash does not match the recorded one");
  }
  artifact.snap = std::make_shared<const snapshot::Snapshot>(std::move(snap));
  return artifact;
}

}  // namespace

util::Result<util::Bytes> ArtifactStore::encode(const StoreContents& contents) {
  for (const LiveStateArtifact& artifact : contents.live_states) {
    if (artifact.snap == nullptr) {
      return util::make_error("svc.store.malformed", "artifact without a cut");
    }
    if (artifact.snap->baseline_id != 0) {
      return util::make_error("svc.store.delta_snapshot",
                              "only standalone snapshots are persistable");
    }
    for (const auto& [node, checkpoint] : artifact.snap->nodes) {
      if (!checkpoint.state.empty() &&
          checkpoint.state.front() == snapshot::kCheckpointSameAsBaseline) {
        return util::make_error("svc.store.delta_snapshot",
                                "node " + std::to_string(node) +
                                    " rides a delta envelope");
      }
    }
  }

  // Canonicalize: equal contents must encode to equal bytes regardless of
  // harvest order (the cold-vs-warm receipt diffs store files).
  std::vector<const LiveStateArtifact*> ordered;
  ordered.reserve(contents.live_states.size());
  for (const LiveStateArtifact& artifact : contents.live_states) {
    ordered.push_back(&artifact);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const LiveStateArtifact* a, const LiveStateArtifact* b) {
              return a->key < b->key;
            });
  std::vector<std::uint64_t> unsat = contents.unsat_keys;
  std::sort(unsat.begin(), unsat.end());
  unsat.erase(std::unique(unsat.begin(), unsat.end()), unsat.end());

  util::ByteWriter payload;
  payload.vu64(ordered.size());
  for (const LiveStateArtifact* artifact : ordered) encode_artifact(payload, *artifact);
  payload.vu64(unsat.size());
  for (const std::uint64_t key : unsat) payload.u64(key);

  util::ByteWriter out(payload.size() + 16);
  out.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
  out.u8(kVersion);
  out.u64(util::fnv1a(payload.span()));
  out.raw(payload.span());
  return std::move(out).take();
}

util::Result<StoreContents> ArtifactStore::decode(std::span<const std::uint8_t> data) {
  util::ByteReader reader(data);
  auto magic = reader.raw(sizeof(kMagic));
  if (!magic) return magic.error();
  if (!std::equal(magic.value().begin(), magic.value().end(),
                  reinterpret_cast<const std::uint8_t*>(kMagic))) {
    return util::make_error("svc.store.bad_magic", "not an artifact store file");
  }
  auto version = reader.u8();
  if (!version) return version.error();
  if (version.value() != kVersion) {
    return util::make_error("svc.store.bad_version",
                            "unknown store version " + std::to_string(version.value()));
  }
  auto checksum = reader.u64();
  if (!checksum) return checksum.error();
  // Verify BEFORE parsing: every corrupted or truncated payload byte is
  // caught here deterministically, so the parser below only ever sees what
  // the encoder wrote.
  const std::span<const std::uint8_t> payload = data.subspan(reader.position());
  if (util::fnv1a(payload) != checksum.value()) {
    return util::make_error("svc.store.checksum_mismatch",
                            "payload checksum does not match");
  }

  StoreContents contents;
  auto artifact_count = reader.vu64();
  if (!artifact_count) return artifact_count.error();
  for (std::uint64_t i = 0; i < artifact_count.value(); ++i) {
    auto artifact = decode_artifact(reader);
    if (!artifact) return artifact.error();
    contents.live_states.push_back(std::move(artifact).take());
  }
  auto unsat_count = reader.vu64();
  if (!unsat_count) return unsat_count.error();
  contents.unsat_keys.reserve(unsat_count.value());
  for (std::uint64_t i = 0; i < unsat_count.value(); ++i) {
    auto key = reader.u64();
    if (!key) return key.error();
    contents.unsat_keys.push_back(key.value());
  }
  if (!reader.exhausted()) {
    return util::make_error("svc.store.trailing_bytes",
                            std::to_string(reader.remaining()) +
                                " byte(s) after the payload");
  }
  return contents;
}

util::Status ArtifactStore::save(const StoreContents& contents) const {
  const auto start = Clock::now();
  auto encoded = encode(contents);
  if (!encoded) return encoded.error();
  // Atomic publish: a crash between write and rename leaves the previous
  // store intact; rename within one directory replaces it in one step.
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::make_error("svc.store.io", "cannot open " + tmp + " for writing");
    }
    out.write(reinterpret_cast<const char*>(encoded.value().data()),
              static_cast<std::streamsize>(encoded.value().size()));
    out.flush();
    if (!out) return util::make_error("svc.store.io", "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::make_error("svc.store.io", "cannot rename " + tmp + " over " + path_);
  }
  store_metrics().save_ms.observe(
      std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  return util::Status::success();
}

util::Result<StoreContents> ArtifactStore::load() const {
  const auto start = Clock::now();
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) {
    return util::make_error("svc.store.missing", path_ + " does not exist");
  }
  // One sized read: a byte-wise stream copy costs more than the decode.
  const std::streamoff size = in.tellg();
  if (size < 0) return util::make_error("svc.store.io", "cannot size " + path_);
  util::Bytes data(static_cast<std::size_t>(size));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(data.data()), size)) {
    return util::make_error("svc.store.io", "read failure on " + path_);
  }
  auto contents = decode(data);
  if (!contents) return contents.error();
  store_metrics().load_ms.observe(
      std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  return contents;
}

}  // namespace dice::svc
