#ifndef CUBETREE_STORAGE_CHECKSUM_H_
#define CUBETREE_STORAGE_CHECKSUM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace cubetree {

/// Checksum sidecar files: per-page CRC-32C tables for immutable page
/// files. A packed Cubetree is written once per epoch (merge-pack), so its
/// checksums are computed during the build and persisted next to the data
/// file as `<path>.crc`; every subsequent ReadPage verifies against the
/// table. The sidecar follows its data file through the whole lifecycle:
/// it is fsynced before the manifest names the tree, renamed aside on
/// quarantine, swept as an orphan during recovery, and unlinked by the
/// same GC token that unlinks the data file.
///
/// On-disk layout (little-endian):
///   u32 magic      'CTCK'
///   u32 version    1
///   u32 page_count N
///   u32 table_crc  CRC-32C over the N-entry table bytes
///   u32 crc[N]     per-page CRC-32C of the 8 KiB page image
///
/// The table_crc makes the sidecar self-verifying: a corrupt sidecar is
/// reported as Corruption (and quarantines the tree), never silently
/// trusted.

/// A sidecar's size: the 16-byte header, then one CRC per data page.
inline constexpr uint64_t kChecksumSidecarHeaderBytes = 16;
inline constexpr uint64_t kChecksumBytesPerPage = 4;

/// `<data_path>.crc`.
std::string ChecksumSidecarPath(const std::string& data_path);

/// Writes and fsyncs the sidecar for `data_path`. Consults the
/// `storage.checksum.finalize` failpoint before the durable write, so the
/// crash harness covers a crash between data-file sync and sidecar sync.
Status WriteChecksumSidecar(const std::string& data_path,
                            const std::vector<uint32_t>& page_crcs);

/// Loads the sidecar for `data_path` into `*page_crcs`. NotFound when no
/// sidecar exists; Corruption — with path context — when the sidecar is
/// present but fails its own validation.
Status LoadChecksumSidecar(const std::string& data_path,
                           std::vector<uint32_t>* page_crcs);

/// Removes the sidecar of `data_path` if present.
Status RemoveChecksumSidecar(const std::string& data_path);

}  // namespace cubetree

#endif  // CUBETREE_STORAGE_CHECKSUM_H_
