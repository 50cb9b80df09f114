#ifndef CDIBOT_STORAGE_ATOMIC_IO_H_
#define CDIBOT_STORAGE_ATOMIC_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "dataflow/table.h"

namespace cdibot {

/// Reads the whole file into a string. NotFound when the file does not
/// exist or cannot be opened; DataLoss when the path is not a regular file
/// (e.g. a directory); Unavailable on a read error mid-stream (the
/// transient flavor, so RetryPolicy will retry it).
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Crash-safe file write: the contents go to `<path>.tmp` first, are
/// flushed, and only then renamed over `path`. rename(2) within one
/// directory is atomic on POSIX, so a reader never observes a half-written
/// `path` — it sees either the old file or the new one. A crash mid-write
/// leaves at worst a stale `.tmp` beside an intact previous version.
/// I/O failures surface as Unavailable (retryable).
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// ToCsv(table) through WriteFileAtomic.
Status WriteCsvFileAtomic(const dataflow::Table& table,
                          const std::string& path);

/// Directory manifest of a saved event log (EventLog::SaveToDir): a format
/// tag, then the CRC-32 (IEEE) and byte size of each day-partition file. It
/// is written ATOMICALLY and LAST, after every partition it covers, so its
/// existence certifies the save completed and its entries certify the
/// partitions are still intact.
///
/// Computes CRC/size of each `files` entry (paths relative to `dir`) and
/// atomically writes `dir`/MANIFEST. Call only after all data files are
/// durably in place.
Status WriteDirManifest(const std::string& dir, const std::string& format,
                        const std::vector<std::string>& files);

/// Loads `dir`/MANIFEST, checks the format tag, and verifies the size and
/// CRC of every covered file. NotFound when there is no manifest; DataLoss
/// when it is malformed, the tag is wrong, or any file is missing, resized,
/// or corrupted.
Status VerifyDirManifest(const std::string& dir,
                         const std::string& expected_format);

}  // namespace cdibot

#endif  // CDIBOT_STORAGE_ATOMIC_IO_H_
