#include "dataflow/table.h"

#include <algorithm>

#include "common/strings.h"

namespace cdibot::dataflow {

StatusOr<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return Status::NotFound("no column named " + name);
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const Field& f : fields_) {
    parts.push_back(f.name + ":" + std::string(ValueTypeToString(f.type)));
  }
  std::string out = "(";
  return out.append(StrJoin(parts, ", ")).append(")");
}

bool operator==(const Schema& a, const Schema& b) {
  if (a.fields_.size() != b.fields_.size()) return false;
  for (size_t i = 0; i < a.fields_.size(); ++i) {
    if (a.fields_[i].name != b.fields_[i].name ||
        a.fields_[i].type != b.fields_[i].type) {
      return false;
    }
  }
  return true;
}

Status Table::Append(Row row) {
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(StrFormat(
        "row has %zu values, schema has %zu fields", row.size(),
        schema_.num_fields()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != schema_.field(i).type) {
      return Status::InvalidArgument(StrFormat(
          "column %s expects %s, got %s", schema_.field(i).name.c_str(),
          std::string(ValueTypeToString(schema_.field(i).type)).c_str(),
          std::string(ValueTypeToString(row[i].type())).c_str()));
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

StatusOr<Value> Table::At(size_t row_index, const std::string& column) const {
  if (row_index >= rows_.size()) {
    return Status::OutOfRange("row index out of range");
  }
  CDIBOT_ASSIGN_OR_RETURN(const size_t col, schema_.IndexOf(column));
  return rows_[row_index][col];
}

std::string Table::ToPrettyString(size_t max_rows) const {
  const size_t cols = schema_.num_fields();
  const size_t shown = std::min(max_rows, rows_.size());
  // Render all cells, then size columns.
  std::vector<std::vector<std::string>> cells;
  cells.reserve(shown + 1);
  std::vector<std::string> header;
  header.reserve(cols);
  for (const Field& f : schema_.fields()) header.push_back(f.name);
  cells.push_back(header);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> line;
    line.reserve(cols);
    for (size_t c = 0; c < cols; ++c) line.push_back(rows_[r][c].ToString());
    cells.push_back(std::move(line));
  }
  std::vector<size_t> width(cols, 0);
  for (const auto& line : cells) {
    for (size_t c = 0; c < cols; ++c) {
      width[c] = std::max(width[c], line[c].size());
    }
  }
  std::string out;
  for (size_t l = 0; l < cells.size(); ++l) {
    for (size_t c = 0; c < cols; ++c) {
      out += StrFormat("%-*s", static_cast<int>(width[c] + 2),
                       cells[l][c].c_str());
    }
    out += "\n";
    if (l == 0) {
      for (size_t c = 0; c < cols; ++c) {
        out += std::string(width[c], '-') + "  ";
      }
      out += "\n";
    }
  }
  if (shown < rows_.size()) {
    out += StrFormat("... (%zu more rows)\n", rows_.size() - shown);
  }
  return out;
}

}  // namespace cdibot::dataflow
