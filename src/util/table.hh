/**
 * @file
 * ASCII table and CSV writers used by the figure-regeneration benches so
 * every experiment prints the same rows/series the paper plots.
 */

#ifndef TPS_UTIL_TABLE_HH
#define TPS_UTIL_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace tps {

/**
 * A simple column-aligned text table.  Rows are added as vectors of
 * pre-formatted cells; print() pads every column to its widest cell.
 */
class Table
{
  public:
    /** Construct with column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append a data row; must match the header arity. */
    void addRow(std::vector<std::string> cells);

    /** Render the table, column-aligned, to @p os. */
    void print(std::ostream &os) const;

    /**
     * Render as CSV (no padding, comma-separated) to @p os.  A field
     * containing a comma or a double quote is quoted, its quotes
     * doubled, so every row has exactly columns() fields.
     */
    void printCsv(std::ostream &os) const;

    size_t rows() const { return rows_.size(); }
    size_t columns() const { return headers_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format @p v with @p decimals decimal places. */
std::string fmtDouble(double v, int decimals = 2);

/** Format @p v as a percentage string with one decimal, e.g. "98.0%". */
std::string fmtPercent(double v);

/** Format a byte count with a binary-unit suffix, e.g. "32KB", "2MB". */
std::string fmtSize(uint64_t bytes);

/** Format an integer with thousands separators. */
std::string fmtCount(uint64_t v);

} // namespace tps

#endif // TPS_UTIL_TABLE_HH
