#include "common/wire.h"

#include "common/crc32.h"

namespace cdibot {
namespace {

void PutU32Le(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

}  // namespace

std::string EncodeWireFrame(std::string_view payload) {
  std::string out;
  out.reserve(kWireHeaderBytes + payload.size() + kWireTrailerBytes);
  PutU32Le(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  PutU32Le(&out, Crc32(payload));
  return out;
}

StatusOr<std::string_view> DecodeWireFrame(std::string_view bytes) {
  WireReader header(bytes.substr(0, kWireHeaderBytes));
  const uint64_t len = header.U32();
  if (!header.ok() ||
      bytes.size() != kWireHeaderBytes + len + kWireTrailerBytes) {
    return Status::DataLoss("wire frame of " + std::to_string(bytes.size()) +
                            " bytes does not match its length prefix");
  }
  const std::string_view payload = bytes.substr(kWireHeaderBytes, len);
  if (WireReader(bytes.substr(kWireHeaderBytes + len)).U32() !=
      Crc32(payload)) {
    return Status::DataLoss("wire frame CRC mismatch");
  }
  return payload;
}

}  // namespace cdibot
