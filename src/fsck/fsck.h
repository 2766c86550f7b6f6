// Offline filesystem checker, in two strictness levels.
//
// kWeak models a real-world FSCK that crafted images can bypass (paper
// §2.1: "such images can bypass FSCK, leading to crashes from malicious
// attackers"): it validates only the superblock and the metadata-region
// allocation bits -- not directory contents, inodes, or reachability.
//
// kStrict is the shadow-grade full check: complete tree walk with
// reachability, link counts, block ownership, bitmap agreement, dirent
// and inode validation, and journal-state inspection. Invariant I2 of the
// reproduction: after any RAE recovery (and flush), kStrict reports a
// consistent image.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blockdev/block_device.h"
#include "common/result.h"

namespace raefs {

enum class FsckLevel : uint8_t { kWeak = 0, kStrict = 1 };

enum class FsckSeverity : uint8_t {
  kFatal = 0,  // structural corruption: the image cannot be trusted
  kLeak = 1,   // space leak (orphan block/inode): safe but wasteful
  kNote = 2,   // informational (e.g. unclean mount flag)
};

struct FsckFinding {
  FsckSeverity severity = FsckSeverity::kFatal;
  std::string what;
};

struct FsckReport {
  std::vector<FsckFinding> findings;

  uint64_t inodes_in_use = 0;
  uint64_t files = 0;
  uint64_t dirs = 0;
  uint64_t symlinks = 0;
  uint64_t blocks_claimed = 0;
  uint64_t committed_journal_txns = 0;

  /// No findings at all.
  bool clean() const { return findings.empty(); }
  /// No fatal findings (leaks/notes allowed).
  bool consistent() const;
  std::string summary() const;
};

struct FsckOptions {
  FsckLevel level = FsckLevel::kStrict;

  /// Read-ahead fan-out of a kStrict check (pFSCK-style): that many
  /// concurrent readers fetch the image's metadata footprint
  /// (format/footprint.h) before the serial walk (reachability, link
  /// counts, block ownership, bitmap agreement) reads through it, so the
  /// findings are identical at any worker count; <= 1 reads the device
  /// directly. The read-ahead may issue device reads a serial run would
  /// have skipped (e.g. the spine of an inode the walk never reaches past
  /// a fatal finding).
  uint32_t workers = 1;
};

/// Run the checker. Device errors surface as kIo; a report is returned
/// even for corrupt images (the corruption is in the findings).
Result<FsckReport> fsck(BlockDevice* dev, FsckLevel level);
Result<FsckReport> fsck(BlockDevice* dev, const FsckOptions& opts);

}  // namespace raefs
