#include "text/uncertain_string.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"
#include "util/math_util.h"

namespace ujoin {

namespace {

// Tolerance for the sum of a position's probabilities before normalization.
constexpr double kSumTolerance = 1e-6;

std::string FormatProb(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", p);
  return buf;
}

}  // namespace

UncertainString UncertainString::FromDeterministic(std::string_view s) {
  UncertainString out;
  out.offsets_.reserve(s.size() + 1);
  out.entries_.reserve(s.size());
  for (char c : s) {
    out.entries_.push_back(CharProb{c, 1.0});
    out.offsets_.push_back(static_cast<uint32_t>(out.entries_.size()));
  }
  return out;
}

double UncertainString::ProbabilityOf(int i, char c) const {
  for (const CharProb& cp : AlternativesAt(i)) {
    if (cp.symbol == c) return cp.prob;
    if (cp.symbol > c) break;  // alternatives are sorted by symbol
  }
  return 0.0;
}

char UncertainString::MostLikelySymbol(int i) const {
  auto alts = AlternativesAt(i);
  UJOIN_DCHECK(!alts.empty());
  const CharProb* best = &alts[0];
  for (const CharProb& cp : alts) {
    if (cp.prob > best->prob) best = &cp;
  }
  return best->symbol;
}

std::string UncertainString::MostLikelyInstance() const {
  std::string out;
  out.reserve(static_cast<size_t>(length()));
  for (int i = 0; i < length(); ++i) out.push_back(MostLikelySymbol(i));
  return out;
}

int64_t UncertainString::WorldCount() const {
  int64_t count = 1;
  for (int i = 0; i < length(); ++i) {
    count = SaturatingMul(count, NumAlternatives(i));
  }
  return count;
}

UncertainString UncertainString::Substring(int pos, int len) const {
  UJOIN_CHECK(pos >= 0 && len >= 0 && pos + len <= length());
  UncertainString out;
  const size_t upos = static_cast<size_t>(pos);
  out.offsets_.reserve(static_cast<size_t>(len) + 1);
  out.entries_.assign(entries_.begin() + offsets_[upos],
                      entries_.begin() + offsets_[upos + static_cast<size_t>(len)]);
  const uint32_t base = offsets_[upos];
  for (int i = 1; i <= len; ++i) {
    out.offsets_.push_back(offsets_[upos + static_cast<size_t>(i)] - base);
    if (NumAlternatives(pos + i - 1) > 1) ++out.num_uncertain_;
  }
  return out;
}

UncertainString UncertainString::Concat(const UncertainString& a,
                                        const UncertainString& b) {
  UncertainString out = a;
  out.entries_.insert(out.entries_.end(), b.entries_.begin(),
                      b.entries_.end());
  const uint32_t base = out.offsets_.back();
  for (size_t i = 1; i < b.offsets_.size(); ++i) {
    out.offsets_.push_back(base + b.offsets_[i]);
  }
  out.num_uncertain_ += b.num_uncertain_;
  return out;
}

std::string UncertainString::ToString() const {
  std::string out;
  for (int i = 0; i < length(); ++i) {
    auto alts = AlternativesAt(i);
    if (alts.size() == 1) {
      out.push_back(alts[0].symbol);
      continue;
    }
    out.push_back('{');
    for (size_t j = 0; j < alts.size(); ++j) {
      if (j > 0) out.push_back(',');
      out.push_back('(');
      out.push_back(alts[j].symbol);
      out.push_back(',');
      out += FormatProb(alts[j].prob);
      out.push_back(')');
    }
    out.push_back('}');
  }
  return out;
}

UncertainString::Builder& UncertainString::Builder::AddCertain(char c) {
  s_.entries_.push_back(CharProb{c, 1.0});
  s_.offsets_.push_back(static_cast<uint32_t>(s_.entries_.size()));
  return *this;
}

UncertainString::Builder& UncertainString::Builder::AddUncertain(
    std::vector<CharProb> alternatives) {
  if (!deferred_error_.ok()) return *this;
  const int position = s_.length();
  if (alternatives.empty()) {
    deferred_error_ = Status::InvalidArgument(
        "position " + std::to_string(position) + " has no alternatives");
    return *this;
  }
  std::sort(alternatives.begin(), alternatives.end(),
            [](const CharProb& a, const CharProb& b) {
              return a.symbol < b.symbol;
            });
  double sum = 0.0;
  for (size_t j = 0; j < alternatives.size(); ++j) {
    // Negated tests, so a NaN probability fails them too.
    const double prob = alternatives[j].prob;
    if (!(prob > 0.0)) {
      deferred_error_ = Status::InvalidArgument(
          std::string(std::isnan(prob) ? "NaN" : "non-positive") +
          " probability at position " + std::to_string(position));
      return *this;
    }
    if (j > 0 && alternatives[j].symbol == alternatives[j - 1].symbol) {
      deferred_error_ = Status::InvalidArgument(
          std::string("duplicate alternative '") + alternatives[j].symbol +
          "' at position " + std::to_string(position));
      return *this;
    }
    sum += alternatives[j].prob;
  }
  if (!(std::fabs(sum - 1.0) <= kSumTolerance)) {
    deferred_error_ = Status::InvalidArgument(
        "probabilities at position " + std::to_string(position) +
        " sum to " + FormatProb(sum) + ", expected 1");
    return *this;
  }
  // Renormalize exactly so downstream products stay well-behaved.
  for (CharProb& cp : alternatives) cp.prob /= sum;
  if (alternatives.size() > 1) ++s_.num_uncertain_;
  s_.entries_.insert(s_.entries_.end(), alternatives.begin(),
                     alternatives.end());
  s_.offsets_.push_back(static_cast<uint32_t>(s_.entries_.size()));
  return *this;
}

Result<UncertainString> UncertainString::Builder::Build() {
  if (!deferred_error_.ok()) {
    Status err = deferred_error_;
    *this = Builder();
    return err;
  }
  UncertainString out = std::move(s_);
  *this = Builder();
  return out;
}

Result<UncertainString> UncertainString::Parse(std::string_view text,
                                               const Alphabet& alphabet) {
  Builder builder;
  size_t i = 0;
  auto symbol_error = [&](char c) {
    return Status::InvalidArgument(std::string("symbol '") + c +
                                   "' is not in the alphabet");
  };
  while (i < text.size()) {
    char c = text[i];
    if (c != '{') {
      if (!alphabet.Contains(c)) return symbol_error(c);
      builder.AddCertain(c);
      ++i;
      continue;
    }
    // Parse `{(c,p),(c,p),...}`.
    ++i;  // consume '{'
    std::vector<CharProb> alts;
    for (;;) {
      if (i >= text.size() || text[i] != '(') {
        return Status::InvalidArgument("expected '(' in uncertain position");
      }
      ++i;  // consume '('
      if (i >= text.size()) {
        return Status::InvalidArgument("truncated uncertain position");
      }
      char sym = text[i++];
      if (!alphabet.Contains(sym)) return symbol_error(sym);
      if (i >= text.size() || text[i] != ',') {
        return Status::InvalidArgument("expected ',' after symbol");
      }
      ++i;  // consume ','
      size_t start = i;
      while (i < text.size() && text[i] != ')') ++i;
      if (i >= text.size()) {
        return Status::InvalidArgument("expected ')' after probability");
      }
      std::string prob_text(text.substr(start, i - start));
      ++i;  // consume ')'
      char* end = nullptr;
      double prob = std::strtod(prob_text.c_str(), &end);
      if (end == prob_text.c_str() || *end != '\0') {
        return Status::InvalidArgument("malformed probability '" + prob_text +
                                       "'");
      }
      alts.push_back(CharProb{sym, prob});
      if (i < text.size() && text[i] == ',') {
        ++i;  // consume ',' before the next alternative
        continue;
      }
      break;
    }
    if (i >= text.size() || text[i] != '}') {
      return Status::InvalidArgument("expected '}' closing uncertain position");
    }
    ++i;  // consume '}'
    builder.AddUncertain(std::move(alts));
  }
  return builder.Build();
}

double MatchProbabilityAt(std::string_view w, const UncertainString& t,
                          int start) {
  if (start < 0 || start + static_cast<int>(w.size()) > t.length()) return 0.0;
  double p = 1.0;
  for (size_t j = 0; j < w.size(); ++j) {
    p *= t.ProbabilityOf(start + static_cast<int>(j), w[j]);
    if (p == 0.0) return 0.0;
  }
  return p;
}

double MatchProbability(std::string_view w, const UncertainString& t) {
  if (static_cast<int>(w.size()) != t.length()) return 0.0;
  return MatchProbabilityAt(w, t, 0);
}

double MatchProbabilityAt(const UncertainString& w, const UncertainString& t,
                          int start) {
  if (start < 0 || start + w.length() > t.length()) return 0.0;
  double p = 1.0;
  for (int j = 0; j < w.length(); ++j) {
    auto wa = w.AlternativesAt(j);
    auto ta = t.AlternativesAt(start + j);
    // Both alternative lists are sorted by symbol: merge them.
    double cell = 0.0;
    size_t a = 0, b = 0;
    while (a < wa.size() && b < ta.size()) {
      if (wa[a].symbol == ta[b].symbol) {
        cell += wa[a].prob * ta[b].prob;
        ++a;
        ++b;
      } else if (wa[a].symbol < ta[b].symbol) {
        ++a;
      } else {
        ++b;
      }
    }
    p *= cell;
    if (p == 0.0) return 0.0;
  }
  return p;
}

double MatchProbability(const UncertainString& w, const UncertainString& t) {
  if (w.length() != t.length()) return 0.0;
  return MatchProbabilityAt(w, t, 0);
}

}  // namespace ujoin
