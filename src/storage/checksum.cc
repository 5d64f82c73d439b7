#include "storage/checksum.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <sys/stat.h>

#include "common/coding.h"
#include "common/crc32.h"
#include "fault/fault_injector.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

constexpr uint32_t kSidecarMagic = 0x4B435443;  // 'CTCK'
constexpr uint32_t kSidecarVersion = 1;

}  // namespace

std::string ChecksumSidecarPath(const std::string& data_path) {
  return data_path + ".crc";
}

Status WriteChecksumSidecar(const std::string& data_path,
                            const std::vector<uint32_t>& page_crcs) {
  const std::string path = ChecksumSidecarPath(data_path);
  std::string blob(kChecksumSidecarHeaderBytes + page_crcs.size() * 4, '\0');
  char* table = blob.data() + kChecksumSidecarHeaderBytes;
  for (size_t i = 0; i < page_crcs.size(); ++i) {
    EncodeFixed32(table + i * 4, page_crcs[i]);
  }
  EncodeFixed32(blob.data(), kSidecarMagic);
  EncodeFixed32(blob.data() + 4, kSidecarVersion);
  EncodeFixed32(blob.data() + 8, static_cast<uint32_t>(page_crcs.size()));
  EncodeFixed32(blob.data() + 12, Crc32c(table, page_crcs.size() * 4));

  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    return ErrnoToStatus(errno, "create " + path);
  }
  Status status = PwriteFully(fd, blob.data(), blob.size(), 0, path);
  if (status.ok()) {
    // The sidecar must be durable before the manifest names its tree:
    // otherwise a crash could leave a committed tree whose checksums are
    // lost, which the loader would treat as corruption.
    status = FaultInjector::AnyArmed()
                 ? FaultInjector::Instance().MaybeFail(
                       "storage.checksum.finalize")
                 : Status::OK();
    if (status.ok()) status = SyncFd(fd, path);
  }
  ::close(fd);
  if (!status.ok()) (void)RemoveFileIfExists(path);
  return status;
}

Status LoadChecksumSidecar(const std::string& data_path,
                           std::vector<uint32_t>* page_crcs) {
  const std::string path = ChecksumSidecarPath(data_path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no checksum sidecar at " + path);
    }
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status =
        Status::IOError("stat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  Status status;
  std::string blob;
  if (st.st_size < static_cast<off_t>(kChecksumSidecarHeaderBytes)) {
    status = Status::Corruption("checksum sidecar " + path +
                                " truncated: " + std::to_string(st.st_size) +
                                " bytes, header needs " +
                                std::to_string(kChecksumSidecarHeaderBytes));
  } else {
    blob.resize(static_cast<size_t>(st.st_size));
    status = PreadFully(fd, blob.data(), blob.size(), 0, "pread " + path);
  }
  ::close(fd);
  CT_RETURN_NOT_OK(status);

  if (DecodeFixed32(blob.data()) != kSidecarMagic) {
    return Status::Corruption("checksum sidecar " + path + ": bad magic");
  }
  if (DecodeFixed32(blob.data() + 4) != kSidecarVersion) {
    return Status::Corruption(
        "checksum sidecar " + path + ": unsupported version " +
        std::to_string(DecodeFixed32(blob.data() + 4)));
  }
  const uint32_t count = DecodeFixed32(blob.data() + 8);
  if (blob.size() !=
      kChecksumSidecarHeaderBytes + static_cast<size_t>(count) * 4) {
    return Status::Corruption(
        "checksum sidecar " + path + ": size " + std::to_string(blob.size()) +
        " does not match page count " + std::to_string(count));
  }
  const char* table = blob.data() + kChecksumSidecarHeaderBytes;
  const uint32_t table_crc = Crc32c(table, static_cast<size_t>(count) * 4);
  if (table_crc != DecodeFixed32(blob.data() + 12)) {
    return Status::Corruption("checksum sidecar " + path +
                              ": table checksum mismatch");
  }
  page_crcs->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    (*page_crcs)[i] = DecodeFixed32(table + static_cast<size_t>(i) * 4);
  }
  return Status::OK();
}

Status RemoveChecksumSidecar(const std::string& data_path) {
  return RemoveFileIfExists(ChecksumSidecarPath(data_path));
}

}  // namespace cubetree
