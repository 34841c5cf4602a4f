#include "util/table.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace tps {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    tps_assert(!headers_.empty());
}

void
Table::addRow(std::vector<std::string> cells)
{
    tps_assert(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

namespace {

/** Display columns of UTF-8 @p text: one per code point. */
size_t
displayWidth(const std::string &text)
{
    size_t width = 0;
    for (unsigned char c : text)
        width += (c & 0xc0) != 0x80;
    return width;
}

} // namespace

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = displayWidth(headers_[c]);
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], displayWidth(row[c]));

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            // Left-align the first column (names), right-align numbers.
            std::string pad(widths[c] - displayWidth(row[c]), ' ');
            if (c == 0)
                os << row[c] << pad;
            else
                os << pad << row[c];
        }
        os << "\n";
    };

    emit_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit_row(row);
}

void
Table::printCsv(std::ostream &os) const
{
    // RFC 4180 quoting: a field holding a comma (fmtCount's thousands
    // separators) or a quote is wrapped in quotes, quotes doubled.
    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            const std::string &field = row[c];
            os << (c == 0 ? "" : ",");
            if (field.find_first_of(",\"") == std::string::npos) {
                os << field;
                continue;
            }
            os << '"';
            for (char ch : field) {
                if (ch == '"')
                    os << '"';
                os << ch;
            }
            os << '"';
        }
        os << "\n";
    };
    emit(headers_);
    for (const auto &row : rows_)
        emit(row);
}

std::string
fmtDouble(double v, int decimals)
{
    // NaN (e.g. Summary::min()/max() on an empty summary) renders as an
    // empty cell rather than "nan"/"-nan" leaking into CSV output.
    if (std::isnan(v))
        return "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
fmtPercent(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f%%", v);
    return buf;
}

std::string
fmtSize(uint64_t bytes)
{
    static const char *suffix[] = {"B", "KB", "MB", "GB", "TB"};
    int s = 0;
    uint64_t v = bytes;
    while (v >= 1024 && (v % 1024) == 0 && s < 4) {
        v /= 1024;
        ++s;
    }
    char buf[64];
    if (v >= 1024) {
        // Not a clean multiple; print one decimal of the next unit up.
        std::snprintf(buf, sizeof(buf), "%.1f%s",
                      static_cast<double>(v) / 1024.0, suffix[s + 1]);
    } else {
        std::snprintf(buf, sizeof(buf), "%llu%s",
                      static_cast<unsigned long long>(v), suffix[s]);
    }
    return buf;
}

std::string
fmtCount(uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    int c = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (c && c % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++c;
    }
    return std::string(out.rbegin(), out.rend());
}

} // namespace tps
