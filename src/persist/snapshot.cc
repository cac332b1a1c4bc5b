#include "persist/snapshot.h"

#include <utility>

namespace q::persist {

namespace {

using relational::Value;
using relational::ValueType;

void PutAttributeId(std::string* out, const relational::AttributeId& id) {
  PutString(out, id.source);
  PutString(out, id.relation);
  PutString(out, id.attribute);
}

util::Status GetAttributeId(Decoder* dec, relational::AttributeId* id) {
  Q_RETURN_NOT_OK(dec->GetString(&id->source));
  Q_RETURN_NOT_OK(dec->GetString(&id->relation));
  Q_RETURN_NOT_OK(dec->GetString(&id->attribute));
  return util::Status::OK();
}

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      PutU64(out, static_cast<std::uint64_t>(v.AsInt64()));
      break;
    case ValueType::kDouble:
      PutF64(out, v.AsDouble());
      break;
    case ValueType::kString:
      PutString(out, v.AsString());
      break;
  }
}

util::Status GetValue(Decoder* dec, Value* v) {
  std::uint8_t tag;
  Q_RETURN_NOT_OK(dec->GetU8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *v = Value::Null();
      return util::Status::OK();
    case ValueType::kInt64: {
      std::uint64_t bits;
      Q_RETURN_NOT_OK(dec->GetU64(&bits));
      *v = Value(static_cast<std::int64_t>(bits));
      return util::Status::OK();
    }
    case ValueType::kDouble: {
      double d;
      Q_RETURN_NOT_OK(dec->GetF64(&d));
      *v = Value(d);
      return util::Status::OK();
    }
    case ValueType::kString: {
      std::string s;
      Q_RETURN_NOT_OK(dec->GetString(&s));
      *v = Value(std::move(s));
      return util::Status::OK();
    }
  }
  return util::Status::InvalidArgument("unknown value type tag " +
                                       std::to_string(tag));
}

}  // namespace

// --- catalog ---------------------------------------------------------------

std::string EncodeCatalog(const relational::Catalog& catalog) {
  std::string out;
  PutU32(&out, static_cast<std::uint32_t>(catalog.sources().size()));
  for (const auto& source : catalog.sources()) {
    PutString(&out, source->name());
    PutU32(&out, static_cast<std::uint32_t>(source->tables().size()));
    for (const auto& table : source->tables()) {
      const relational::RelationSchema& schema = table->schema();
      PutString(&out, schema.source());
      PutString(&out, schema.relation());
      PutU32(&out, static_cast<std::uint32_t>(schema.attributes().size()));
      for (const relational::AttributeDef& attr : schema.attributes()) {
        PutString(&out, attr.name);
        PutU8(&out, static_cast<std::uint8_t>(attr.type));
      }
      PutU32(&out, static_cast<std::uint32_t>(schema.foreign_keys().size()));
      for (const relational::ForeignKey& fk : schema.foreign_keys()) {
        PutString(&out, fk.local_attribute);
        PutString(&out, fk.ref_source);
        PutString(&out, fk.ref_relation);
        PutString(&out, fk.ref_attribute);
      }
      PutU64(&out, table->num_rows());
      for (const relational::Row& row : table->rows()) {
        for (const Value& v : row) PutValue(&out, v);
      }
    }
  }
  return out;
}

util::Status DecodeCatalog(std::string_view payload,
                           relational::Catalog* out) {
  Decoder dec(payload);
  std::uint32_t num_sources;
  Q_RETURN_NOT_OK(dec.GetCount(&num_sources, 8));
  for (std::uint32_t s = 0; s < num_sources; ++s) {
    std::string name;
    Q_RETURN_NOT_OK(dec.GetString(&name));
    auto source = std::make_shared<relational::DataSource>(name);
    std::uint32_t num_tables;
    Q_RETURN_NOT_OK(dec.GetCount(&num_tables, 8));
    for (std::uint32_t t = 0; t < num_tables; ++t) {
      std::string schema_source, relation;
      Q_RETURN_NOT_OK(dec.GetString(&schema_source));
      Q_RETURN_NOT_OK(dec.GetString(&relation));
      std::uint32_t num_attrs;
      Q_RETURN_NOT_OK(dec.GetCount(&num_attrs, 5));
      std::vector<relational::AttributeDef> attrs(num_attrs);
      for (auto& attr : attrs) {
        Q_RETURN_NOT_OK(dec.GetString(&attr.name));
        std::uint8_t type;
        Q_RETURN_NOT_OK(dec.GetU8(&type));
        if (type > static_cast<std::uint8_t>(ValueType::kString)) {
          return util::Status::InvalidArgument("unknown attribute type tag " +
                                               std::to_string(type));
        }
        attr.type = static_cast<ValueType>(type);
      }
      auto table = std::make_shared<relational::Table>(
          relational::RelationSchema(schema_source, relation,
                                     std::move(attrs)));
      std::uint32_t num_fks;
      Q_RETURN_NOT_OK(dec.GetCount(&num_fks, 16));
      for (std::uint32_t f = 0; f < num_fks; ++f) {
        relational::ForeignKey fk;
        Q_RETURN_NOT_OK(dec.GetString(&fk.local_attribute));
        Q_RETURN_NOT_OK(dec.GetString(&fk.ref_source));
        Q_RETURN_NOT_OK(dec.GetString(&fk.ref_relation));
        Q_RETURN_NOT_OK(dec.GetString(&fk.ref_attribute));
        table->mutable_schema().AddForeignKey(std::move(fk));
      }
      std::uint64_t num_rows;
      Q_RETURN_NOT_OK(dec.GetU64(&num_rows));
      std::size_t cols = table->num_columns();
      if (num_rows > dec.remaining() / (cols > 0 ? cols : 1)) {
        return util::Status::OutOfRange("row count exceeds payload");
      }
      for (std::uint64_t r = 0; r < num_rows; ++r) {
        relational::Row row(cols);
        for (Value& v : row) Q_RETURN_NOT_OK(GetValue(&dec, &v));
        // AppendRow re-checks arity and per-column types, so a decoded
        // value of the wrong type surfaces as a Status here.
        Q_RETURN_NOT_OK(table->AppendRow(std::move(row)));
      }
      Q_RETURN_NOT_OK(source->AddTable(std::move(table)));
    }
    Q_RETURN_NOT_OK(out->AddSource(std::move(source)));
  }
  if (!dec.done()) {
    return util::Status::InvalidArgument("trailing bytes in catalog section");
  }
  return util::Status::OK();
}

// --- feature space -----------------------------------------------------------

std::string EncodeFeatureSpace(const graph::FeatureSpace& space) {
  std::string out;
  PutU32(&out, static_cast<std::uint32_t>(space.size()));
  for (std::size_t i = 0; i < space.size(); ++i) {
    PutString(&out, space.name(static_cast<graph::FeatureId>(i)));
    PutF64(&out, space.initial_weight(static_cast<graph::FeatureId>(i)));
  }
  return out;
}

util::Status DecodeFeatureSpace(std::string_view payload,
                                graph::FeatureSpace* space) {
  if (space->size() != 1) {
    return util::Status::InvalidArgument(
        "DecodeFeatureSpace needs a freshly constructed space");
  }
  Decoder dec(payload);
  std::uint32_t count;
  Q_RETURN_NOT_OK(dec.GetCount(&count, 12));
  if (count == 0) {
    return util::Status::InvalidArgument(
        "feature space missing the default feature");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    double initial;
    Q_RETURN_NOT_OK(dec.GetString(&name));
    Q_RETURN_NOT_OK(dec.GetF64(&initial));
    if (i == 0) {
      if (name != space->name(graph::FeatureSpace::kDefaultFeature)) {
        return util::Status::InvalidArgument(
            "feature 0 is '" + name + "', expected 'default'");
      }
    } else {
      graph::FeatureId id = space->Intern(name, initial);
      // A duplicate name (or a non-fresh space) breaks the dense id <->
      // index correspondence every persisted id relies on.
      if (id != i) {
        return util::Status::InvalidArgument(
            "feature id mismatch for '" + name + "': got " +
            std::to_string(id) + ", expected " + std::to_string(i));
      }
    }
    // Persisted initial weights win over config-derived ones: the
    // restored WeightVector reads through to them for untouched ids, and
    // bit-identity with the saving system requires the saved values.
    space->SetInitialWeight(static_cast<graph::FeatureId>(i), initial);
  }
  if (!dec.done()) {
    return util::Status::InvalidArgument(
        "trailing bytes in feature_space section");
  }
  return util::Status::OK();
}

// --- search graph ------------------------------------------------------------

std::string EncodeGraph(const graph::SearchGraph& graph) {
  std::string out;
  PutU32(&out, static_cast<std::uint32_t>(graph.num_nodes()));
  for (std::size_t i = 0; i < graph.num_nodes(); ++i) {
    const graph::Node& node = graph.node(static_cast<graph::NodeId>(i));
    PutU8(&out, static_cast<std::uint8_t>(node.kind));
    PutString(&out, node.label);
    PutAttributeId(&out, node.attr);
    PutString(&out, graph.node_value_text(static_cast<graph::NodeId>(i)));
  }
  PutU32(&out, static_cast<std::uint32_t>(graph.num_edges()));
  for (std::size_t i = 0; i < graph.num_edges(); ++i) {
    const graph::EdgeId e = static_cast<graph::EdgeId>(i);
    const graph::EdgeView edge = graph.edge(e);
    PutU32(&out, edge.u);
    PutU32(&out, edge.v);
    PutU8(&out, static_cast<std::uint8_t>(edge.kind));
    PutU8(&out, edge.fixed_zero ? 1 : 0);
    const graph::FeatureVec& features = graph.edge_features(e);
    PutU32(&out, static_cast<std::uint32_t>(features.size()));
    for (const auto& [id, value] : features.entries()) {
      PutU32(&out, id);
      PutF64(&out, value);
    }
    const std::vector<graph::MatcherScore>& provenance =
        graph.edge_provenance(e);
    PutU32(&out, static_cast<std::uint32_t>(provenance.size()));
    for (const graph::MatcherScore& score : provenance) {
      PutString(&out, score.matcher);
      PutF64(&out, score.confidence);
    }
    PutAttributeId(&out, graph.edge_join_a(e));
    PutAttributeId(&out, graph.edge_join_b(e));
  }
  PutU64(&out, graph.revision());
  return out;
}

util::Status DecodeGraph(std::string_view payload, std::size_t num_features,
                         graph::SearchGraph* out) {
  if (out->num_nodes() != 0 || out->num_edges() != 0) {
    return util::Status::InvalidArgument("DecodeGraph needs an empty graph");
  }
  Decoder dec(payload);
  std::uint32_t num_nodes;
  Q_RETURN_NOT_OK(dec.GetCount(&num_nodes, 17));
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    std::uint8_t kind;
    Q_RETURN_NOT_OK(dec.GetU8(&kind));
    if (kind > static_cast<std::uint8_t>(graph::NodeKind::kKeyword)) {
      return util::Status::InvalidArgument("unknown node kind " +
                                           std::to_string(kind));
    }
    std::string label, value_text;
    relational::AttributeId attr;
    Q_RETURN_NOT_OK(dec.GetString(&label));
    Q_RETURN_NOT_OK(GetAttributeId(&dec, &attr));
    Q_RETURN_NOT_OK(dec.GetString(&value_text));
    graph::NodeId id = out->AddNode(static_cast<graph::NodeKind>(kind),
                                    std::move(label), std::move(attr));
    // AddNode dedupes by (kind, label): a duplicate here means the
    // payload is internally inconsistent and persisted edge endpoints
    // would silently shift.
    if (id != i) {
      return util::Status::InvalidArgument("duplicate node at index " +
                                           std::to_string(i));
    }
    if (!value_text.empty()) {
      out->SetNodeValueText(id, std::move(value_text));
    }
  }
  std::uint32_t num_edges;
  Q_RETURN_NOT_OK(dec.GetCount(&num_edges, 36));
  for (std::uint32_t i = 0; i < num_edges; ++i) {
    graph::Edge edge;
    Q_RETURN_NOT_OK(dec.GetU32(&edge.u));
    Q_RETURN_NOT_OK(dec.GetU32(&edge.v));
    // Pre-validate what AddEdge would Q_CHECK: decoded data must never be
    // able to abort the process.
    if (edge.u >= num_nodes || edge.v >= num_nodes || edge.u == edge.v) {
      return util::Status::InvalidArgument(
          "edge " + std::to_string(i) + " has invalid endpoints " +
          std::to_string(edge.u) + "-" + std::to_string(edge.v));
    }
    std::uint8_t kind;
    Q_RETURN_NOT_OK(dec.GetU8(&kind));
    if (kind > static_cast<std::uint8_t>(graph::EdgeKind::kValueMembership)) {
      return util::Status::InvalidArgument("unknown edge kind " +
                                           std::to_string(kind));
    }
    edge.kind = static_cast<graph::EdgeKind>(kind);
    std::uint8_t fixed_zero;
    Q_RETURN_NOT_OK(dec.GetU8(&fixed_zero));
    edge.fixed_zero = fixed_zero != 0;
    std::uint32_t num_feat;
    Q_RETURN_NOT_OK(dec.GetCount(&num_feat, 12));
    for (std::uint32_t f = 0; f < num_feat; ++f) {
      std::uint32_t fid;
      double value;
      Q_RETURN_NOT_OK(dec.GetU32(&fid));
      Q_RETURN_NOT_OK(dec.GetF64(&value));
      if (fid >= num_features) {
        return util::Status::InvalidArgument(
            "edge " + std::to_string(i) + " references unknown feature id " +
            std::to_string(fid));
      }
      edge.features.Add(fid, value);
    }
    std::uint32_t num_prov;
    Q_RETURN_NOT_OK(dec.GetCount(&num_prov, 12));
    edge.provenance.resize(num_prov);
    for (graph::MatcherScore& score : edge.provenance) {
      Q_RETURN_NOT_OK(dec.GetString(&score.matcher));
      Q_RETURN_NOT_OK(dec.GetF64(&score.confidence));
    }
    Q_RETURN_NOT_OK(GetAttributeId(&dec, &edge.join_a));
    Q_RETURN_NOT_OK(GetAttributeId(&dec, &edge.join_b));
    out->AddEdge(std::move(edge));
  }
  std::uint64_t revision;
  Q_RETURN_NOT_OK(dec.GetU64(&revision));
  if (!dec.done()) {
    return util::Status::InvalidArgument("trailing bytes in graph section");
  }
  // Restoring the saved revision last discards the bumps AddNode/AddEdge
  // made during reconstruction.
  out->RestoreRevision(revision);
  return util::Status::OK();
}

// --- weights -----------------------------------------------------------------

std::string EncodeWeights(const graph::WeightVector& weights) {
  std::string out;
  PutU32(&out, static_cast<std::uint32_t>(weights.values().size()));
  for (double v : weights.values()) PutF64(&out, v);
  PutU64(&out, weights.revision());
  return out;
}

util::Status DecodeWeights(std::string_view payload, std::size_t num_features,
                           graph::WeightVector* out) {
  Decoder dec(payload);
  std::uint32_t num_values;
  Q_RETURN_NOT_OK(dec.GetCount(&num_values, 8));
  if (num_values > num_features) {
    return util::Status::InvalidArgument(
        "weight vector longer than feature space");
  }
  std::vector<double> values(num_values);
  for (double& v : values) Q_RETURN_NOT_OK(dec.GetF64(&v));
  std::uint64_t revision;
  Q_RETURN_NOT_OK(dec.GetU64(&revision));
  if (!dec.done()) {
    return util::Status::InvalidArgument("trailing bytes in weights section");
  }
  out->Restore(std::move(values), revision);
  return util::Status::OK();
}

// --- feedback log ------------------------------------------------------------

std::string EncodeFeedback(const feedback::FeedbackLog& log) {
  std::string out;
  PutU64(&out, log.next_sequence());
  std::vector<feedback::FeedbackEvent> events = log.Snapshot();
  PutU32(&out, static_cast<std::uint32_t>(events.size()));
  for (const feedback::FeedbackEvent& event : events) {
    PutU8(&out, static_cast<std::uint8_t>(event.kind));
    PutU8(&out, event.replayable ? 1 : 0);
    PutU64(&out, event.sequence);
    PutU64(&out, event.weight_revision);
    PutU32(&out, static_cast<std::uint32_t>(event.keywords.size()));
    for (const std::string& kw : event.keywords) PutString(&out, kw);
    PutU32(&out, static_cast<std::uint32_t>(event.deltas.size()));
    for (const graph::FeatureDelta& d : event.deltas) {
      PutU32(&out, d.id);
      PutF64(&out, d.old_value);
      PutF64(&out, d.new_value);
    }
  }
  return out;
}

util::Status DecodeFeedback(std::string_view payload,
                            feedback::FeedbackLog* out) {
  Decoder dec(payload);
  std::uint64_t next_sequence;
  Q_RETURN_NOT_OK(dec.GetU64(&next_sequence));
  std::uint32_t num_events;
  Q_RETURN_NOT_OK(dec.GetCount(&num_events, 26));
  std::vector<feedback::FeedbackEvent> events(num_events);
  for (feedback::FeedbackEvent& event : events) {
    std::uint8_t kind, replayable;
    Q_RETURN_NOT_OK(dec.GetU8(&kind));
    if (kind > static_cast<std::uint8_t>(feedback::FeedbackKind::kGold)) {
      return util::Status::InvalidArgument("unknown feedback kind " +
                                           std::to_string(kind));
    }
    event.kind = static_cast<feedback::FeedbackKind>(kind);
    Q_RETURN_NOT_OK(dec.GetU8(&replayable));
    event.replayable = replayable != 0;
    Q_RETURN_NOT_OK(dec.GetU64(&event.sequence));
    Q_RETURN_NOT_OK(dec.GetU64(&event.weight_revision));
    std::uint32_t num_keywords;
    Q_RETURN_NOT_OK(dec.GetCount(&num_keywords, 4));
    event.keywords.resize(num_keywords);
    for (std::string& kw : event.keywords) {
      Q_RETURN_NOT_OK(dec.GetString(&kw));
    }
    std::uint32_t num_deltas;
    Q_RETURN_NOT_OK(dec.GetCount(&num_deltas, 20));
    event.deltas.resize(num_deltas);
    for (graph::FeatureDelta& d : event.deltas) {
      Q_RETURN_NOT_OK(dec.GetU32(&d.id));
      Q_RETURN_NOT_OK(dec.GetF64(&d.old_value));
      Q_RETURN_NOT_OK(dec.GetF64(&d.new_value));
    }
  }
  if (!dec.done()) {
    return util::Status::InvalidArgument("trailing bytes in feedback section");
  }
  out->Restore(next_sequence, std::move(events));
  return util::Status::OK();
}

// --- file orchestration --------------------------------------------------

std::string SnapshotFilePath(const std::string& dir) {
  return dir + "/snapshot.qs";
}

util::Status SaveSnapshot(const SnapshotState& state, const std::string& dir,
                          util::Env* env) {
  if (env == nullptr) env = util::DefaultEnv();
  if (state.catalog == nullptr || state.space == nullptr ||
      state.graph == nullptr || state.weights == nullptr ||
      state.log == nullptr) {
    return util::Status::InvalidArgument("SaveSnapshot: null state pointer");
  }

  struct SectionBuf {
    SectionTag tag;
    std::string payload;
  };
  const SectionBuf sections[] = {
      {SectionTag::kCatalog, EncodeCatalog(*state.catalog)},
      {SectionTag::kFeatureSpace, EncodeFeatureSpace(*state.space)},
      {SectionTag::kGraph, EncodeGraph(*state.graph)},
      {SectionTag::kWeights, EncodeWeights(*state.weights)},
      {SectionTag::kFeedback, EncodeFeedback(*state.log)},
  };
  constexpr std::uint32_t kNumSections = 5;

  Q_RETURN_NOT_OK(env->CreateDirs(dir).WithContext("SaveSnapshot"));
  const std::string tmp = SnapshotFilePath(dir) + ".tmp";
  // A stale temp file from an earlier crashed save must not leak bytes
  // into this one (we stage with appends).
  Q_RETURN_NOT_OK(env->RemoveFile(tmp).WithContext("SaveSnapshot"));

  // Stage section by section: each append is a separate kill point for
  // the fault harness, modelling a crash partway through the write.
  std::string header;
  AppendHeader(&header, kNumSections);
  Q_RETURN_NOT_OK(env->AppendFile(tmp, header).WithContext("SaveSnapshot"));
  for (const SectionBuf& section : sections) {
    std::string framed;
    AppendSection(&framed, section.tag, section.payload);
    Q_RETURN_NOT_OK(env->AppendFile(tmp, framed).WithContext("SaveSnapshot"));
  }

  // The atomic commit: data to disk, then the rename, then the rename to
  // disk. Any prefix of this sequence leaves the previous snapshot (or
  // its absence) fully intact.
  Q_RETURN_NOT_OK(env->SyncFile(tmp).WithContext("SaveSnapshot"));
  Q_RETURN_NOT_OK(
      env->RenameFile(tmp, SnapshotFilePath(dir)).WithContext("SaveSnapshot"));
  Q_RETURN_NOT_OK(env->SyncDir(dir).WithContext("SaveSnapshot"));
  return util::Status::OK();
}

util::Status ReadSnapshotFile(const std::string& dir, util::Env* env,
                              LoadedSnapshot* out) {
  if (env == nullptr) env = util::DefaultEnv();
  auto file = env->ReadFile(SnapshotFilePath(dir));
  if (!file.ok()) {
    return file.status().WithContext("ReadSnapshotFile");
  }
  out->file = *std::move(file);
  // Parse after the buffer has reached its final address: payloads are
  // views into out->file.
  return ParseSnapshotFile(out->file, &out->outcome);
}

std::string SnapshotLoadReport::Summary() const {
  auto line = [](const char* name, const util::Status& status) {
    return std::string(name) + ": " + status.ToString() + "\n";
  };
  std::string out;
  out += "cold_start: ";
  out += cold_start ? "true" : "false";
  out += "\n";
  out += "weights_replayed: ";
  out += weights_replayed ? "true" : "false";
  out += "\n";
  out += line("header", header);
  out += line("catalog", catalog);
  out += line("feature_space", feature_space);
  out += line("graph", graph);
  out += line("weights", weights);
  out += line("feedback", feedback);
  for (const std::string& note : notes) {
    out += "note: " + note + "\n";
  }
  return out;
}

}  // namespace q::persist
