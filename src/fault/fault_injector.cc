#include "fault/fault_injector.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/result.h"

namespace cubetree {

namespace {

/// Every failpoint in the codebase, with the operation it interrupts. Call
/// sites consult these names through CT_FAULT / FaultInjector::Check; the
/// crash-recovery harness enumerates this table and crashes a refresh at
/// each entry.
const FaultInjector::PointInfo kRegistry[] = {
    {"storage.page.create", "creating (truncating) a page file"},
    {"storage.page.open", "opening an existing page file"},
    {"storage.page.read", "reading one page (retried with backoff)"},
    {"storage.page.write", "writing one page in place (torn-capable)"},
    {"storage.page.append", "appending one page (torn-capable)"},
    {"storage.page.sync", "fsync of a page file"},
    {"storage.file.remove", "unlinking a file"},
    {"wal.create", "creating a write-ahead log"},
    {"wal.force", "WAL commit: flush partial page + fsync"},
    {"sort.spill", "spilling a sorted run to disk"},
    {"sort.merge", "merging spilled runs"},
    {"sort.finish", "finalizing the external sort"},
    {"spool.seal", "sealing a record spool (flushing its tail page)"},
    {"rtree.build.start", "start of a packed R-tree bulk build"},
    {"rtree.build.sync", "fsync of a freshly built R-tree file"},
    {"storage.checksum.finalize", "writing a page file's checksum sidecar"},
    {"obs.querylog.rotate", "rotating a query/slow-trace log segment"},
    {"disk.probe", "statvfs free-space probe of the store's volume"},
    {"disk.preflight", "refresh disk-space preflight (forced refusal)"},
    {"forest.manifest.create", "creating the manifest tmp file"},
    {"forest.manifest.write", "writing the manifest tmp contents"},
    {"forest.manifest.sync", "fsync of the manifest tmp file"},
    {"forest.manifest.rename", "renaming manifest tmp into place"},
    {"forest.manifest.dirsync", "fsync of the forest directory"},
    {"forest.refresh.build", "after building one tree's next generation"},
    {"forest.refresh.commit", "after the durable manifest swap"},
    {"forest.refresh.gc", "before unlinking one retired tree file"},
    {"forest.recover.gc", "before unlinking one orphaned file in recovery"},
};

Status BadSpec(const std::string& failpoint, const std::string& spec,
               const char* why) {
  return Status::InvalidArgument("failpoint " + failpoint + ": bad spec '" +
                                 spec + "' (" + why + ")");
}

Result<FaultSpec> ParseSpec(const std::string& failpoint,
                            const std::string& text) {
  FaultSpec spec;
  std::string body = text;
  // Optional trailing @N selects the triggering hit.
  if (const size_t at = body.find('@'); at != std::string::npos) {
    char* end = nullptr;
    const unsigned long n = std::strtoul(body.c_str() + at + 1, &end, 10);
    if (end == nullptr || *end != '\0' || n == 0) {
      return BadSpec(failpoint, text, "@N needs a positive hit index");
    }
    spec.trigger_on_hit = static_cast<uint32_t>(n);
    body.resize(at);
  }
  // Optional (K) bounds the number of triggers (transient faults).
  if (const size_t paren = body.find('('); paren != std::string::npos) {
    if (body.back() != ')') {
      return BadSpec(failpoint, text, "unbalanced parenthesis");
    }
    char* end = nullptr;
    const unsigned long k = std::strtoul(body.c_str() + paren + 1, &end, 10);
    if (end == nullptr || *end != ')' || k == 0) {
      return BadSpec(failpoint, text, "(K) needs a positive trigger count");
    }
    spec.max_triggers = static_cast<uint32_t>(k);
    body.resize(paren);
  }
  if (body == "error") {
    spec.action = FaultAction::kError;
  } else if (body == "torn") {
    spec.action = FaultAction::kTorn;
  } else if (body == "crash") {
    spec.action = FaultAction::kCrash;
  } else if (body == "throw") {
    spec.action = FaultAction::kThrow;
  } else if (body == "bitflip") {
    spec.action = FaultAction::kBitflip;
  } else if (body == "corrupt_page") {
    spec.action = FaultAction::kCorruptPage;
  } else if (body == "enospc") {
    spec.action = FaultAction::kEnospc;
  } else if (body == "short_write") {
    spec.action = FaultAction::kShortWrite;
  } else {
    return BadSpec(failpoint, text,
                   "action must be error, torn, crash, throw, bitflip, "
                   "corrupt_page, enospc or short_write");
  }
  return spec;
}

/// CT_FAULT's fast path never calls Instance() while armed_count() is
/// zero, so the CUBETREE_FAILPOINTS parse inside Instance() would never
/// run in a binary that only arms through the environment. Force it at
/// static-initialization time instead; arming bumps armed_count(), which
/// is all the fast path looks at.
[[maybe_unused]] const bool g_env_failpoints_loaded =
    (FaultInjector::Instance(), true);

}  // namespace

Status FaultOutcome::ToStatus() const {
  if (!fail) return Status::OK();
  if (enospc || short_write) {
    return Status::StorageFull("injected disk full at " + failpoint +
                               (short_write ? " (short write)" : ""));
  }
  return Status::IOError("injected fault at " + failpoint +
                         (torn ? " (torn write)" : ""));
}

std::atomic<int>& FaultInjector::armed_count() {
  static std::atomic<int> count{0};
  return count;
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* instance = [] {
    // ct-lint: allow(no-naked-new)
    auto* injector = new FaultInjector();  // Intentionally leaked singleton.
    if (const char* env = std::getenv("CUBETREE_FAILPOINTS");
        env != nullptr && env[0] != '\0') {
      Status status = injector->ParseAndArm(env);
      if (!status.ok()) {
        CT_LOG(Warn) << "CUBETREE_FAILPOINTS ignored: " << status.ToString();
        injector->DisarmAll();
      }
    }
    return injector;
  }();
  return *instance;
}

const std::vector<FaultInjector::PointInfo>& FaultInjector::RegisteredPoints() {
  static const std::vector<PointInfo> points(std::begin(kRegistry),
                                             std::end(kRegistry));
  return points;
}

bool FaultInjector::IsRegistered(const std::string& failpoint) {
  for (const PointInfo& point : RegisteredPoints()) {
    if (failpoint == point.name) return true;
  }
  return false;
}

Status FaultInjector::Arm(const std::string& failpoint, FaultSpec spec) {
  if (!IsRegistered(failpoint)) {
    return Status::InvalidArgument("unknown failpoint: " + failpoint);
  }
  MutexLock lock(mu_);
  auto [it, inserted] = armed_.insert_or_assign(failpoint, Armed{spec, 0, 0});
  (void)it;
  if (inserted) armed_count().fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FaultInjector::Arm(const std::string& failpoint,
                          const std::string& spec) {
  CT_ASSIGN_OR_RETURN(FaultSpec parsed, ParseSpec(failpoint, spec));
  return Arm(failpoint, parsed);
}

void FaultInjector::Disarm(const std::string& failpoint) {
  MutexLock lock(mu_);
  if (armed_.erase(failpoint) > 0) {
    armed_count().fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::DisarmAll() {
  MutexLock lock(mu_);
  armed_count().fetch_sub(static_cast<int>(armed_.size()),
                          std::memory_order_relaxed);
  armed_.clear();
}

Status FaultInjector::ParseAndArm(const std::string& config) {
  size_t begin = 0;
  while (begin < config.size()) {
    size_t end = config.find_first_of(";,", begin);
    if (end == std::string::npos) end = config.size();
    const std::string entry = config.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint entry '" + entry +
                                     "' is not name=spec");
    }
    CT_RETURN_NOT_OK(Arm(entry.substr(0, eq), entry.substr(eq + 1)));
  }
  return Status::OK();
}

uint64_t FaultInjector::HitCount(const std::string& failpoint) const {
  MutexLock lock(mu_);
  auto it = hits_.find(failpoint);
  return it == hits_.end() ? 0 : it->second;
}

FaultOutcome FaultInjector::Check(const char* failpoint) {
  FaultOutcome outcome;
  outcome.failpoint = failpoint;
  MutexLock lock(mu_);
  ++hits_[outcome.failpoint];
  auto it = armed_.find(outcome.failpoint);
  if (it == armed_.end()) return outcome;
  Armed& armed = it->second;
  const uint64_t hit = ++armed.hits;
  if (hit < armed.spec.trigger_on_hit) return outcome;
  if (armed.spec.max_triggers != 0 &&
      armed.triggered >= armed.spec.max_triggers) {
    return outcome;
  }
  ++armed.triggered;
  switch (armed.spec.action) {
    case FaultAction::kCrash: {
      // Mimic a power cut as closely as user space allows: no unwinding,
      // no atexit handlers, no stream flushing. The note uses write(2)
      // directly so it cannot be lost in a stdio buffer.
      char note[160];
      const int len =
          std::snprintf(note, sizeof(note),
                        "cubetree: simulated crash at failpoint %s\n",
                        failpoint);
      if (len > 0) {
        (void)!::write(STDERR_FILENO, note, static_cast<size_t>(len));
      }
      std::_Exit(kCrashExitCode);
    }
    case FaultAction::kThrow:
      throw SimulatedCrash(outcome.failpoint);
    case FaultAction::kTorn:
      outcome.torn = true;
      outcome.fail = true;
      return outcome;
    case FaultAction::kError:
      outcome.fail = true;
      return outcome;
    case FaultAction::kBitflip:
      outcome.bitflip = true;
      return outcome;
    case FaultAction::kCorruptPage:
      outcome.corrupt_page = true;
      return outcome;
    case FaultAction::kEnospc:
      outcome.enospc = true;
      outcome.fail = true;
      return outcome;
    case FaultAction::kShortWrite:
      outcome.short_write = true;
      outcome.fail = true;
      return outcome;
  }
  return outcome;
}

}  // namespace cubetree
