// Raw journal bytes for the store tests: whole-file read/write and a
// frame builder for hand-crafted (including deliberately malformed)
// frames, following the layout in store/journal.hpp.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "store/crc32c.hpp"

namespace qcenv::store::wal_test {

constexpr std::size_t kMagicLen = 8;
constexpr std::size_t kFrameHeaderLen = 8;

inline std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline void write_raw(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

inline void put_le32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

inline void put_le64(std::string& out, std::uint64_t value) {
  put_le32(out, static_cast<std::uint32_t>(value & 0xFFFFFFFFu));
  put_le32(out, static_cast<std::uint32_t>(value >> 32));
}

inline std::uint32_t get_le32(const std::string& bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
  }
  return value;
}

/// Byte offsets of every frame in a journal file's `content` (after the
/// magic), following the declared lengths.
inline std::vector<std::size_t> frame_offsets(const std::string& content) {
  std::vector<std::size_t> offsets;
  std::size_t pos = kMagicLen;
  while (pos + kFrameHeaderLen <= content.size()) {
    offsets.push_back(pos);
    pos += kFrameHeaderLen + get_le32(content, pos);
  }
  return offsets;
}

/// One frame `[len][crc][seq][t][type_len][type][body]` with a valid CRC.
/// `type_len` overrides the declared type length, to craft a prelude that
/// contradicts the frame's own length.
inline std::string frame(std::uint64_t seq, const std::string& type,
                         const std::string& body,
                         std::optional<std::uint32_t> type_len = {}) {
  std::string payload;
  put_le64(payload, seq);
  put_le64(payload, seq * 10);
  put_le32(payload, type_len.value_or(static_cast<std::uint32_t>(type.size())));
  payload += type;
  payload += body;
  std::string out;
  put_le32(out, static_cast<std::uint32_t>(payload.size()));
  put_le32(out, crc32c(payload));
  return out + payload;
}

}  // namespace qcenv::store::wal_test
