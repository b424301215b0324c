// Prints the paper's figures (bench/paper/figures.h) in paper order: each
// table at the precision of its columns, then its notes and its expected
// shape.  Takes no flags; tests/test_validation.cpp checks the same data.
#include <iostream>
#include <string>
#include <vector>

#include "figures.h"
#include "util/table.h"

namespace {

using simphony::util::Json;
using simphony::util::Table;

std::string cell_text(const Json& cell, const Json& column) {
  if (cell.is_string()) return cell.as_string();
  const int precision = static_cast<int>(column.at("precision").as_number());
  return Table::fmt(cell.as_number(), precision) +
         (column.contains("suffix") ? column.at("suffix").as_string() : "");
}

/// Substitutes "{key:p}" (a number at p decimals) and "{key}" (text) from
/// the figure's values.
std::string fill(const std::string& note, const Json& values) {
  std::string out;
  size_t pos = 0;
  for (size_t open; (open = note.find('{', pos)) != std::string::npos;) {
    const size_t close = note.find('}', open);
    const std::string field = note.substr(open + 1, close - open - 1);
    const size_t colon = field.find(':');
    const Json& value = values.at(field.substr(0, colon));
    out += note.substr(pos, open - pos);
    if (colon == std::string::npos) {
      out += value.as_string();
    } else {
      out += Table::fmt(value.as_number(), std::stoi(field.substr(colon + 1)));
    }
    pos = close + 1;
  }
  return out + note.substr(pos);
}

}  // namespace

int main() {
  for (const Json& figure : simphony::paper::figures()) {
    std::cout << "=== " << figure.at("title").as_string() << " ===\n";
    const Json::Array& columns = figure.at("columns").as_array();
    std::vector<std::string> header;
    for (const Json& column : columns) {
      header.push_back(column.at("name").as_string());
    }
    Table table(std::move(header));
    for (const Json& row : figure.at("rows").as_array()) {
      std::vector<std::string> cells;
      for (size_t c = 0; c < columns.size(); ++c) {
        cells.push_back(cell_text(row.as_array()[c], columns[c]));
      }
      table.add_row(std::move(cells));
    }
    if (!columns.empty()) std::cout << table.render();
    for (const Json& note : figure.at("notes").as_array()) {
      std::cout << fill(note.as_string(), figure.at("values")) << "\n";
    }
    if (figure.contains("claim")) {
      std::cout << "expected shape: " << figure.at("claim").as_string()
                << "\n";
    }
    std::cout << "\n";
  }
  return 0;
}
