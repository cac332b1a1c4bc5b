#ifndef Q_PERSIST_FORMAT_H_
#define Q_PERSIST_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace q::persist {

// Low-level encoding for the snapshot file (docs/persistence.md). All
// integers are little-endian regardless of host; doubles are the IEEE-754
// bit pattern of the value. Strings are a u32 length followed by raw
// bytes. Decoding is bounds-checked everywhere: arbitrary byte garbage
// fed to a Decoder yields a util::Status, never UB — the property the
// bit-flip suite of the fault harness leans on.

// --- primitive writers -------------------------------------------------
void PutU8(std::string* out, std::uint8_t v);
void PutU32(std::string* out, std::uint32_t v);
void PutU64(std::string* out, std::uint64_t v);
void PutF64(std::string* out, double v);
void PutString(std::string* out, std::string_view v);

// --- bounds-checked reader ---------------------------------------------
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  util::Status GetU8(std::uint8_t* v);
  util::Status GetU32(std::uint32_t* v);
  util::Status GetU64(std::uint64_t* v);
  util::Status GetF64(double* v);
  util::Status GetString(std::string* v);

  // Reads a u32 element count that the remaining payload must plausibly
  // hold (>= count * min_element_bytes remaining), rejecting corrupt
  // counts before they can drive a giant allocation.
  util::Status GetCount(std::uint32_t* count, std::size_t min_element_bytes);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  util::Status Take(std::size_t n, const char** p);

  std::string_view data_;
  std::size_t pos_ = 0;
};

// CRC-32 (IEEE 802.3, the zlib polynomial).
std::uint32_t Crc32(std::string_view data);

// Incremental form, for checksumming discontiguous bytes (frame header +
// payload) without concatenating them first:
//   state = Crc32Update(kCrc32Init, part1);
//   state = Crc32Update(state, part2);
//   crc = Crc32Finish(state);
// Crc32(x) == Crc32Finish(Crc32Update(kCrc32Init, x)).
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;
std::uint32_t Crc32Update(std::uint32_t state, std::string_view data);
inline std::uint32_t Crc32Finish(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

// --- snapshot file framing ----------------------------------------------
// File layout:
//   header:  magic "QSNAPS01" | u32 format version | u32 section count |
//            u32 crc over the preceding bytes
//   section: u32 tag | u64 payload length | u32 crc over tag+len+payload |
//            payload bytes
// Each section is independently framed and checksummed so damage to one
// leaves the others recoverable.

inline constexpr char kMagic[] = "QSNAPS01";  // 8 bytes on disk (no NUL)
inline constexpr std::size_t kMagicLen = 8;
inline constexpr std::uint32_t kFormatVersion = 2;

enum class SectionTag : std::uint32_t {
  kCatalog = 1,
  kFeatureSpace = 2,
  kGraph = 3,
  kWeights = 4,
  kFeedback = 5,
};

std::string_view SectionTagName(std::uint32_t tag);

// Appends the file header for a snapshot with `num_sections` sections.
void AppendHeader(std::string* out, std::uint32_t num_sections);

// Appends one framed, checksummed section.
void AppendSection(std::string* out, SectionTag tag, std::string_view payload);

struct ParsedSection {
  std::uint32_t tag = 0;
  std::string_view payload;  // views into the parsed buffer
};

struct ParseOutcome {
  std::vector<ParsedSection> sections;  // frames whose CRC verified
  // One message per damaged or lost section frame (CRC mismatch,
  // truncated tail, implausible length).
  std::vector<std::string> section_errors;
  std::uint32_t declared_sections = 0;
};

// Validates the header and walks the section frames. A section with an
// in-bounds frame but wrong CRC is skipped and reported; a frame whose
// declared length runs past the end of the file ends the walk (there is
// no way to resynchronize), reporting everything after it as lost.
// Returns non-OK only when the header itself is unusable (wrong magic,
// bad header CRC, unsupported version) — i.e. nothing can be salvaged.
// `file` must outlive the outcome (payloads are views into it).
util::Status ParseSnapshotFile(std::string_view file, ParseOutcome* out);

}  // namespace q::persist

#endif  // Q_PERSIST_FORMAT_H_
