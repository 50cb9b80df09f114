#include "storage/atomic_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/crc32.h"
#include "common/strings.h"
#include "dataflow/csv.h"

namespace cdibot {

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open: " + path);
  // A directory opens fine and reads as empty, indistinguishable from an
  // empty file; name the real cause instead.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::DataLoss("not a regular file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) return Status::Unavailable("read failed: " + path);
  return buffer.str();
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      return Status::Unavailable("cannot open for write: " + tmp);
    }
    file.write(contents.data(),
               static_cast<std::streamsize>(contents.size()));
    file.flush();
    if (!file) {
      file.close();
      std::remove(tmp.c_str());
      return Status::Unavailable("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

Status WriteCsvFileAtomic(const dataflow::Table& table,
                          const std::string& path) {
  return WriteFileAtomic(path, dataflow::ToCsv(table));
}

namespace {

/// One file covered by a directory manifest.
struct ManifestEntry {
  std::string file;    ///< name relative to the manifest's directory
  uint32_t crc32 = 0;  ///< CRC-32 (IEEE) of the file's bytes
  uint64_t bytes = 0;  ///< file size, catches truncation cheaply
};

/// The parsed MANIFEST of an event-log directory. Loaders reject a format
/// tag they do not recognize rather than misinterpret the partitions.
struct Manifest {
  std::string format;
  std::vector<ManifestEntry> entries;
};

constexpr char kManifestFileName[] = "MANIFEST";

/// Serialization: first line is the format tag, then one
/// "<crc32-hex> <bytes> <filename>" line per entry.
std::string EncodeManifest(const Manifest& manifest) {
  std::string out = manifest.format;
  out += '\n';
  for (const ManifestEntry& entry : manifest.entries) {
    out += StrFormat("%08x %llu %s\n", entry.crc32,
                     static_cast<unsigned long long>(entry.bytes),
                     entry.file.c_str());
  }
  return out;
}

StatusOr<Manifest> ParseManifest(const std::string& text) {
  Manifest manifest;
  std::istringstream stream(text);
  std::string line;
  if (!std::getline(stream, line) || StrTrim(line).empty()) {
    return Status::DataLoss("manifest has no format line");
  }
  manifest.format = std::string(StrTrim(line));
  size_t line_no = 1;
  while (std::getline(stream, line)) {
    ++line_no;
    if (StrTrim(line).empty()) continue;
    ManifestEntry entry;
    unsigned int crc = 0;
    unsigned long long bytes = 0;
    int name_at = -1;
    if (std::sscanf(line.c_str(), "%x %llu %n", &crc, &bytes, &name_at) < 2 ||
        name_at < 0 || static_cast<size_t>(name_at) >= line.size()) {
      return Status::DataLoss(
          StrFormat("malformed manifest line %zu", line_no));
    }
    entry.crc32 = crc;
    entry.bytes = bytes;
    entry.file = std::string(StrTrim(line.substr(name_at)));
    if (entry.file.empty()) {
      return Status::DataLoss(
          StrFormat("manifest line %zu names no file", line_no));
    }
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

}  // namespace

Status WriteDirManifest(const std::string& dir, const std::string& format,
                        const std::vector<std::string>& files) {
  Manifest manifest;
  manifest.format = format;
  for (const std::string& file : files) {
    CDIBOT_ASSIGN_OR_RETURN(const std::string contents,
                            ReadFileToString(dir + "/" + file));
    manifest.entries.push_back(
        {file, Crc32(contents), static_cast<uint64_t>(contents.size())});
  }
  return WriteFileAtomic(dir + "/" + kManifestFileName,
                         EncodeManifest(manifest));
}

Status VerifyDirManifest(const std::string& dir,
                         const std::string& expected_format) {
  CDIBOT_ASSIGN_OR_RETURN(const std::string text,
                          ReadFileToString(dir + "/" + kManifestFileName));
  CDIBOT_ASSIGN_OR_RETURN(const Manifest manifest, ParseManifest(text));
  if (manifest.format != expected_format) {
    return Status::DataLoss("unsupported manifest format '" +
                            manifest.format + "' (want '" + expected_format +
                            "')");
  }
  for (const ManifestEntry& entry : manifest.entries) {
    auto contents = ReadFileToString(dir + "/" + entry.file);
    if (!contents.ok()) {
      return Status::DataLoss("manifest-covered file missing: " + entry.file);
    }
    if (contents->size() != entry.bytes) {
      return Status::DataLoss(StrFormat(
          "%s truncated: %llu bytes, manifest says %llu", entry.file.c_str(),
          static_cast<unsigned long long>(contents->size()),
          static_cast<unsigned long long>(entry.bytes)));
    }
    if (Crc32(*contents) != entry.crc32) {
      return Status::DataLoss("CRC mismatch on " + entry.file);
    }
  }
  return Status::OK();
}

}  // namespace cdibot
