#include "graph/graph_io.h"

#include <cstdlib>
#include <map>

#include "common/csv.h"
#include "common/fault_injection.h"

namespace vadalink::graph {

namespace {

// Properties are emitted in sorted key order so output is deterministic.
void AppendProperties(const auto& props, std::vector<std::string>* row) {
  std::map<std::string, const PropertyValue*> sorted;
  for (const auto& [k, v] : props) sorted[k] = &v;
  for (const auto& [k, v] : sorted) {
    row->push_back(k + "=" + v->Encode());
  }
}

// Decodes the `key=value` cells from `start` on and passes each to `set`.
template <typename SetFn>
Status ParseProperties(const std::vector<std::string>& row, size_t start,
                       SetFn&& set) {
  for (size_t i = start; i < row.size(); ++i) {
    const std::string& cell = row[i];
    if (cell.empty()) continue;
    size_t eq = cell.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("property cell missing '=': " + cell);
    }
    auto value = PropertyValue::Decode(cell.substr(eq + 1));
    if (!value.ok()) return value.status();
    set(cell.substr(0, eq), std::move(value).value());
  }
  return Status::OK();
}

Result<uint32_t> ParseU32(const std::string& s) {
  char* end = nullptr;
  unsigned long v = std::strtoul(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v > 0xffffffffUL) {
    return Status::ParseError("bad integer: '" + s + "'");
  }
  return static_cast<uint32_t>(v);
}

/// Prefixes an error with "<path>:<line>: " so a bad row in a large dump
/// is findable. Preserves the original code.
Status AtLine(const std::string& path, size_t line, const Status& st) {
  std::string msg = path + ":" + std::to_string(line) + ": " + st.message();
  switch (st.code()) {
    case StatusCode::kIoError: return Status::IoError(std::move(msg));
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    default: return Status::ParseError(std::move(msg));
  }
}

}  // namespace

Status SaveGraphCsv(const PropertyGraph& g, const std::string& nodes_path,
                    const std::string& edges_path) {
  VL_FAULT_POINT("graph_io.save_csv");
  std::vector<std::vector<std::string>> node_rows;
  node_rows.reserve(g.node_count());
  for (NodeId n = 0; n < g.node_count(); ++n) {
    std::vector<std::string> row{std::to_string(n), g.node_label(n)};
    AppendProperties(g.node_properties(n), &row);
    node_rows.push_back(std::move(row));
  }
  VL_RETURN_NOT_OK(WriteCsvFile(nodes_path, node_rows));

  std::vector<std::vector<std::string>> edge_rows;
  edge_rows.reserve(g.edge_count());
  g.ForEachEdge([&](EdgeId e) {
    std::vector<std::string> row{
        std::to_string(e), std::to_string(g.edge_src(e)),
        std::to_string(g.edge_dst(e)), g.edge_label(e)};
    AppendProperties(g.edge_properties(e), &row);
    edge_rows.push_back(std::move(row));
  });
  return WriteCsvFile(edges_path, edge_rows);
}

Result<PropertyGraph> LoadGraphCsv(const std::string& nodes_path,
                                   const std::string& edges_path) {
  VL_FAULT_POINT("graph_io.load_csv");
  VL_ASSIGN_OR_RETURN(auto node_doc, ReadCsvDocument(nodes_path));
  VL_ASSIGN_OR_RETURN(auto edge_doc, ReadCsvDocument(edges_path));

  PropertyGraph g;
  g.Reserve(node_doc.rows.size(), edge_doc.rows.size());
  for (size_t r = 0; r < node_doc.rows.size(); ++r) {
    const auto& row = node_doc.rows[r];
    const size_t line = node_doc.row_lines[r];
    if (row.size() < 2) {
      return AtLine(nodes_path, line,
                    Status::ParseError("node row too short (need id,label, got " +
                                       std::to_string(row.size()) +
                                       " field(s)); file truncated?"));
    }
    auto id = ParseU32(row[0]);
    if (!id.ok()) return AtLine(nodes_path, line, id.status());
    if (*id != g.node_count()) {
      return AtLine(nodes_path, line,
                    Status::ParseError(
                        "node ids must be dense and ordered: expected " +
                        std::to_string(g.node_count()) + ", got " + row[0]));
    }
    NodeId n = g.AddNode(row[1]);
    Status st = ParseProperties(row, 2, [&](const std::string& k,
                                            PropertyValue v) {
      g.SetNodeProperty(n, k, std::move(v));
    });
    if (!st.ok()) return AtLine(nodes_path, line, st);
  }
  for (size_t r = 0; r < edge_doc.rows.size(); ++r) {
    const auto& row = edge_doc.rows[r];
    const size_t line = edge_doc.row_lines[r];
    if (row.size() < 4) {
      return AtLine(edges_path, line,
                    Status::ParseError(
                        "edge row too short (need id,src,dst,label, got " +
                        std::to_string(row.size()) +
                        " field(s)); file truncated?"));
    }
    auto src = ParseU32(row[1]);
    if (!src.ok()) return AtLine(edges_path, line, src.status());
    auto dst = ParseU32(row[2]);
    if (!dst.ok()) return AtLine(edges_path, line, dst.status());
    auto e = g.AddEdge(*src, *dst, row[3]);
    if (!e.ok()) return AtLine(edges_path, line, e.status());
    Status st = ParseProperties(row, 4, [&](const std::string& k,
                                            PropertyValue v) {
      g.SetEdgeProperty(*e, k, std::move(v));
    });
    if (!st.ok()) return AtLine(edges_path, line, st);
  }
  return g;
}

}  // namespace vadalink::graph
