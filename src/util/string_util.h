#ifndef Q_UTIL_STRING_UTIL_H_
#define Q_UTIL_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace q::util {

// ASCII lowercase copy.
std::string ToLower(std::string_view s);

// Strips leading/trailing whitespace.
std::string_view Trim(std::string_view s);

// Splits on `sep`, dropping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Tokenizes an identifier or free text into lowercase word tokens:
// splits on non-alphanumerics and on camelCase boundaries, so
// "goTermName" and "go_term_name" both yield {"go","term","name"}.
std::vector<std::string> TokenizeIdentifier(std::string_view s);

// Tokenizes free text into lowercase alphanumeric word tokens.
std::vector<std::string> TokenizeText(std::string_view s);

// True if the (trimmed) string parses fully as an integer or decimal number.
bool IsNumericLiteral(std::string_view s);

// Levenshtein edit distance. `scratch` holds the DP row and is resized
// here, so a caller scoring many pairs reuses one allocation.
std::size_t EditDistance(std::string_view a, std::string_view b,
                         std::vector<std::size_t>* scratch);

// 1 - EditDistance/max(|a|,|b|), in [0,1]; 1 when both empty.
double EditSimilarity(std::string_view a, std::string_view b,
                      std::vector<std::size_t>* scratch);

// Length of the longest common substring; `scratch` as for EditDistance.
std::size_t LongestCommonSubstring(std::string_view a, std::string_view b,
                                   std::vector<std::size_t>* scratch);

// printf-style double with fixed precision, e.g. FormatDouble(0.123456, 2)
// == "0.12".
std::string FormatDouble(double v, int precision);

}  // namespace q::util

#endif  // Q_UTIL_STRING_UTIL_H_
