#include "common/durable/artifact_store.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/durable/durable_file.hpp"
#include "common/fault.hpp"

namespace trajkit::durable {
namespace {

constexpr const char* kArtifactTag = "artifact";
constexpr std::uint32_t kArtifactVersion = 1;
constexpr const char* kCurrentTag = "artifact_current";
constexpr std::uint32_t kCurrentVersion = 1;

/// Kinds become file-name stems; keep them boring so a hostile kind cannot
/// escape the store directory or collide with CURRENT.
bool valid_kind(const std::string& kind) {
  if (kind.empty() || kind.size() > 64) return false;
  for (const char c : kind) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool path_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// Highest "<kind>.<epoch>" epoch present in `dir`, 0 when none.  A directory
/// scan rather than sequential probing: orphans are normally contiguous above
/// CURRENT, but a CURRENT restored from an older backup can leave arbitrary
/// gaps, and a publish must never land below (and later shadow) any of them.
std::uint64_t max_epoch_on_disk(const std::string& dir, const std::string& kind) {
  std::uint64_t max_epoch = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  const std::string prefix = kind + '.';
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    std::uint64_t epoch = 0;
    bool numeric = true;
    for (std::size_t i = prefix.size(); i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') { numeric = false; break; }
      epoch = epoch * 10 + static_cast<std::uint64_t>(name[i] - '0');
    }
    if (numeric && epoch > max_epoch) max_epoch = epoch;
  }
  ::closedir(d);
  return max_epoch;
}

/// Reclaim stale "<kind>.<epoch>.tmp" files a crash inside DurableWriter's
/// atomic commit left behind.  remove_stale_tmp() can only clean paths it is
/// told about, and the epoch of an interrupted publish is unknowable after a
/// restart — so open scans the directory once and unlinks every temp whose
/// stem parses as a valid artifact name.  Only that exact shape is touched:
/// anything else ending in .tmp is not ours to delete.
void reclaim_stale_artifact_tmp(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> stale;
  const std::string suffix = ".tmp";
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string stem = name.substr(0, name.size() - suffix.size());
    const std::size_t dot = stem.rfind('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= stem.size()) continue;
    if (!valid_kind(stem.substr(0, dot))) continue;
    bool numeric = true;
    for (std::size_t i = dot + 1; i < stem.size(); ++i) {
      if (stem[i] < '0' || stem[i] > '9') { numeric = false; break; }
    }
    if (!numeric) continue;
    stale.push_back(dir + "/" + name);
  }
  ::closedir(d);
  for (const std::string& path : stale) ::unlink(path.c_str());
}

}  // namespace

std::string ArtifactStore::current_path(const std::string& dir) {
  return dir + "/CURRENT";
}

std::string ArtifactStore::artifact_path(const std::string& kind,
                                         std::uint64_t epoch) const {
  return dir_ + "/" + kind + "." + std::to_string(epoch);
}

Expected<std::unique_ptr<ArtifactStore>, std::string> ArtifactStore::open_dir(
    const std::string& dir) {
  using Result = Expected<std::unique_ptr<ArtifactStore>, std::string>;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Result::failure("artifact store: cannot create " + dir + ": " +
                           std::strerror(errno));
  }
  std::unique_ptr<ArtifactStore> store(new ArtifactStore(dir));
  // A crash inside a previous publish can strand temp files for either the
  // artifact being written or the CURRENT flip.
  remove_stale_tmp(current_path(dir));
  reclaim_stale_artifact_tmp(dir);

  const std::string cur = current_path(dir);
  if (!path_exists(cur)) return Result(std::move(store));  // fresh store
  auto records = read_durable_file(cur, kCurrentTag, kCurrentVersion);
  if (!records) return Result::failure("artifact store: " + records.error());
  for (const auto& record : records.value()) {
    std::istringstream is(record);
    std::string kind;
    std::uint64_t epoch = 0;
    if (!(is >> kind >> epoch) || !valid_kind(kind) || epoch == 0) {
      return Result::failure("artifact store: bad CURRENT record '" + record + "'");
    }
    store->current_[kind] = epoch;
  }
  return Result(std::move(store));
}

Expected<bool, std::string> ArtifactStore::write_current() const {
  DurableWriter writer(kCurrentTag, kCurrentVersion);
  for (const auto& [kind, epoch] : current_) {
    writer.add_record(kind + ' ' + std::to_string(epoch));
  }
  return writer.commit(current_path(dir_));
}

Expected<std::uint64_t, std::string> ArtifactStore::publish_payload(
    const std::string& kind, std::string_view payload) {
  using Result = Expected<std::uint64_t, std::string>;
  if (!valid_kind(kind)) {
    return Result::failure("artifact store: invalid kind '" + kind + "'");
  }

  // Next epoch: strictly above CURRENT *and* above any orphan artifact a
  // crashed publish left behind, so a re-publish after recovery can never
  // reuse (and silently shadow) an epoch number.
  const std::uint64_t on_disk = max_epoch_on_disk(dir_, kind);
  std::uint64_t epoch = std::max(current_epoch(kind), on_disk) + 1;
  while (path_exists(artifact_path(kind, epoch))) ++epoch;

  // Stage 1: commit the artifact file itself.  Atomic; a crash leaves either
  // nothing or a complete file that CURRENT does not name yet.
  DurableWriter writer(kArtifactTag, kArtifactVersion);
  writer.add_record(kind + ' ' + std::to_string(epoch));
  writer.add_record(payload);
  auto committed = writer.commit(artifact_path(kind, epoch));
  if (!committed) return Result::failure("artifact store: " + committed.error());

  // The publish gap the recovery tests walk: artifact durable, CURRENT still
  // naming the old epoch.  Crashing here must recover to the old epoch.
  if (global_faults().should_fail_seq(kFaultPublishCurrent,
                                      path_fault_key(current_path(dir_)))) {
    return Result::failure("artifact store: injected fault before CURRENT flip");
  }

  // Stage 2: flip CURRENT.  On failure the in-memory pointer is rolled back
  // so this handle keeps serving the epoch on-disk readers see.
  const auto previous = current_;
  current_[kind] = epoch;
  auto flipped = write_current();
  if (!flipped) {
    current_ = previous;
    return Result::failure("artifact store: " + flipped.error());
  }
  return Result(epoch);
}

std::uint64_t ArtifactStore::current_epoch(const std::string& kind) const {
  const auto it = current_.find(kind);
  return it == current_.end() ? 0 : it->second;
}

Expected<std::string, std::string> ArtifactStore::read_payload(
    const std::string& kind, std::uint64_t epoch) const {
  using Result = Expected<std::string, std::string>;
  if (!valid_kind(kind)) {
    return Result::failure("artifact store: invalid kind '" + kind + "'");
  }
  if (epoch == kCurrentEpoch) {
    epoch = current_epoch(kind);
    if (epoch == 0) {
      return Result::failure("artifact store: no published epoch for '" + kind + "'");
    }
  }
  auto contents =
      read_durable_file(artifact_path(kind, epoch), kArtifactTag, kArtifactVersion);
  if (!contents) return Result::failure("artifact store: " + contents.error());
  const auto& records = contents.value();
  if (records.size() != 2) {
    return Result::failure("artifact store: unexpected record count in " +
                           artifact_path(kind, epoch));
  }
  std::istringstream meta(records[0]);
  std::string got_kind;
  std::uint64_t got_epoch = 0;
  if (!(meta >> got_kind >> got_epoch) || got_kind != kind || got_epoch != epoch) {
    return Result::failure("artifact store: meta/path mismatch in " +
                           artifact_path(kind, epoch));
  }
  return Result(std::string(records[1]));
}

}  // namespace trajkit::durable
