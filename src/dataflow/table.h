#ifndef CDIBOT_DATAFLOW_TABLE_H_
#define CDIBOT_DATAFLOW_TABLE_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "dataflow/value.h"

namespace cdibot::dataflow {

/// One named, typed column of a schema.
struct Field {
  std::string name;
  ValueType type = ValueType::kNull;
};

/// Column layout of a Table. Column names must be unique.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const std::vector<Field>& fields() const { return fields_; }
  const Field& field(size_t i) const { return fields_[i]; }

  /// Index of the column named `name`, or NotFound.
  StatusOr<size_t> IndexOf(const std::string& name) const;

  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b);

 private:
  std::vector<Field> fields_;
};

/// A row: one Value per schema field.
using Row = std::vector<Value>;

/// An in-memory row-major table — the MaxCompute-table stand-in that CSV
/// export, storage and checkpoints read and write. Rows are validated
/// against the schema at append time (null is accepted for any type).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  const Row& row(size_t i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Appends after type-checking against the schema.
  Status Append(Row row);

  /// Appends without checks, for rows built from already-typed data.
  void AppendUnchecked(Row row) { rows_.push_back(std::move(row)); }

  /// Value at (row, column-name); NotFound for unknown columns.
  StatusOr<Value> At(size_t row_index, const std::string& column) const;

  /// Renders the first `max_rows` rows as an aligned text table (the BI
  /// visualization stand-in used by examples).
  std::string ToPrettyString(size_t max_rows = 50) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace cdibot::dataflow

#endif  // CDIBOT_DATAFLOW_TABLE_H_
