#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace q::util {
namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

char LowerChar(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

}  // namespace

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), LowerChar);
  return out;
}

std::string_view Trim(std::string_view s) {
  std::size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  std::size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> TokenizeIdentifier(std::string_view s) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (!IsWordChar(c)) {
      flush();
      continue;
    }
    // camelCase boundary: lower/digit followed by upper starts a new token.
    if (std::isupper(static_cast<unsigned char>(c)) && !current.empty() &&
        !std::isupper(static_cast<unsigned char>(s[i - 1]))) {
      flush();
    }
    current += LowerChar(c);
  }
  flush();
  return tokens;
}

std::vector<std::string> TokenizeText(std::string_view s) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : s) {
    if (IsWordChar(c)) {
      current += LowerChar(c);
    } else if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

bool IsNumericLiteral(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return false;
  std::size_t i = 0;
  if (s[i] == '+' || s[i] == '-') ++i;
  bool digits = false;
  bool dot = false;
  for (; i < s.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(s[i]))) {
      digits = true;
    } else if (s[i] == '.' && !dot) {
      dot = true;
    } else {
      return false;
    }
  }
  return digits;
}

std::size_t EditDistance(std::string_view a, std::string_view b,
                         std::vector<std::size_t>* scratch) {
  if (a.size() > b.size()) std::swap(a, b);
  // One-row DP; a is the shorter string.
  std::vector<std::size_t>& row = *scratch;
  row.resize(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    std::size_t prev_diag = row[0];
    row[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      std::size_t insert_or_delete = std::min(row[i], row[i - 1]) + 1;
      std::size_t substitute = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev_diag = row[i];
      row[i] = std::min(insert_or_delete, substitute);
    }
  }
  return row[a.size()];
}

double EditSimilarity(std::string_view a, std::string_view b,
                      std::vector<std::size_t>* scratch) {
  std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b, scratch)) /
                   static_cast<double>(longest);
}

std::size_t LongestCommonSubstring(std::string_view a, std::string_view b,
                                   std::vector<std::size_t>* scratch) {
  if (a.empty() || b.empty()) return 0;
  std::vector<std::size_t>& row = *scratch;
  row.assign(b.size() + 1, 0);
  std::size_t best = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev_diag = 0;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      std::size_t saved = row[j];
      row[j] = (a[i - 1] == b[j - 1]) ? prev_diag + 1 : 0;
      best = std::max(best, row[j]);
      prev_diag = saved;
    }
  }
  return best;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return std::string(buf);
}

}  // namespace q::util
