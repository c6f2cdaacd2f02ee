#include "join/pipeline.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "join/transform.h"
#include "obs/trace.h"
#include "prim/gather.h"

namespace gpujoin::join {

Result<PipelineRunResult> RunJoinPipeline(vgpu::Device& device, JoinAlgo algo,
                                          const Table& fact,
                                          const std::vector<Table>& dims,
                                          const JoinOptions& options,
                                          const PipelineResilience* resilience) {
  const int n_joins = static_cast<int>(dims.size());
  if (n_joins == 0) {
    return Status::InvalidArgument("RunJoinPipeline: no dimension tables");
  }
  if (fact.num_columns() < n_joins) {
    return Status::InvalidArgument(
        "RunJoinPipeline: fact table has fewer FK columns than dims");
  }

  PipelineRunResult res;
  obs::TraceSpan pipeline_span(device, "query",
                               std::string("pipeline:") + JoinAlgoName(algo));
  pipeline_span.Annotate("joins", std::to_string(n_joins));
  const double t0 = device.ElapsedSeconds();

  // Current fact-side tuple identifiers (initially the identity) and the
  // dimension payload columns accumulated so far.
  GPUJOIN_ASSIGN_OR_RETURN(
      auto ids, vgpu::DeviceBuffer<RowId>::Allocate(device, fact.num_rows()));
  GPUJOIN_RETURN_IF_ERROR(prim::Iota(device, &ids));
  std::vector<DeviceColumn> acc_cols;
  std::vector<std::string> acc_names;
  DeviceColumn last_key;
  std::string last_key_name;

  for (int i = 0; i < n_joins; ++i) {
    GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
    obs::TraceSpan step_span(device, "step",
                             "join_" + std::to_string(i) + ":" + dims[i].name());
    // Materialize FK_i through the current identifiers, right before use.
    GPUJOIN_ASSIGN_OR_RETURN(DeviceColumn fk,
                             GatherColumn(device, fact.column(i), ids));

    // Assemble the probe-side relation: (FK_i, ID, P_1, ..., P_{i-1}).
    std::vector<std::string> s_names;
    std::vector<DeviceColumn> s_cols;
    s_names.push_back(fact.column_name(i));
    s_cols.push_back(std::move(fk));
    {
      // Identifiers ride as a 4-byte payload column.
      GPUJOIN_ASSIGN_OR_RETURN(
          auto id_col, DeviceColumn::Allocate(device, DataType::kInt32, ids.size()));
      for (uint64_t t = 0; t < ids.size(); ++t) {
        id_col.Set(t, static_cast<int64_t>(ids[t]));
      }
      s_names.emplace_back("fact_id");
      s_cols.push_back(std::move(id_col));
    }
    for (size_t c = 0; c < acc_cols.size(); ++c) {
      s_names.push_back(acc_names[c]);
      s_cols.push_back(std::move(acc_cols[c]));
    }
    Table s_cur =
        Table::FromColumns("pipeline_probe", std::move(s_names), std::move(s_cols));

    JoinRunResult jr;
    if (resilience == nullptr) {
      GPUJOIN_ASSIGN_OR_RETURN(jr, RunJoin(device, algo, dims[i], s_cur, options));
    } else {
      // A failed RunJoin releases its working state while `s_cur` and
      // `dims[i]` stay resident, so a retry sees the same inputs.
      JoinOptions jopts = options;
      const auto span_label = [&](int n) {
        return "join_" + std::to_string(i) + "_" + std::to_string(n);
      };
      const auto attempt = [&]() -> Status {
        GPUJOIN_ASSIGN_OR_RETURN(jr, RunJoin(device, algo, dims[i], s_cur, jopts));
        return Status::OK();
      };
      const auto escalate = [&](const Status& failure,
                                int n) -> std::optional<DegradationStep> {
        if (algo != JoinAlgo::kPhjUm && algo != JoinAlgo::kPhjOm) {
          return std::nullopt;
        }
        const int bits = jopts.radix_bits_override;
        const int next_bits = std::min(bits <= 0 ? 8 : bits + 2, 16);
        // Bits already at the ceiling: an identical retry cannot succeed.
        if (next_bits == bits) return std::nullopt;
        jopts.radix_bits_override = next_bits;
        return DegradationStep{
            "retry_more_partition_bits",
            "pipeline join " + std::to_string(i) + " failed (" +
                failure.message() + "); retrying with radix_bits=" +
                std::to_string(next_bits) + " after backoff of " +
                std::to_string(resilience->backoff.DelayCycles(n)) + " cycles"};
      };
      const Ladder ladder{.op = "pipeline", .caller = "RunJoinPipeline",
                          .subject = JoinAlgoName(algo), .budget = *resilience,
                          .span_label = span_label, .attempt = attempt,
                          .escalate = escalate};
      GPUJOIN_RETURN_IF_ERROR(
          RunLadder(device, ladder, &res.degradation).status());
    }
    res.per_join.push_back(jr.phases);

    // Output schema: key, dim payloads (n_dim_pay), fact_id, previous accs.
    const int n_dim_pay = dims[i].num_columns() - 1;
    acc_names.clear();
    std::vector<DeviceColumn> new_acc;
    for (int c = 1; c <= n_dim_pay; ++c) {
      acc_names.push_back(jr.output.column_name(c));
      new_acc.push_back(jr.output.TakeColumn(c));
    }
    const int id_idx = 1 + n_dim_pay;
    DeviceColumn id_col = jr.output.TakeColumn(id_idx);
    for (int c = id_idx + 1; c < jr.output.num_columns(); ++c) {
      acc_names.push_back(jr.output.column_name(c));
      new_acc.push_back(jr.output.TakeColumn(c));
    }
    acc_cols = std::move(new_acc);
    last_key = jr.output.TakeColumn(0);
    last_key_name = jr.output.column_name(0);

    // Rebuild the identifier buffer from the carried id column.
    ids.Release();
    GPUJOIN_ASSIGN_OR_RETURN(
        ids, vgpu::DeviceBuffer<RowId>::Allocate(device, id_col.size()));
    for (uint64_t t = 0; t < id_col.size(); ++t) {
      ids[t] = static_cast<RowId>(id_col.Get(t));
    }
    id_col.Release();
    res.final_rows = jr.output_rows;
  }

  // Assemble the final output table.
  std::vector<std::string> out_names;
  std::vector<DeviceColumn> out_cols;
  out_names.push_back(last_key_name);
  out_cols.push_back(std::move(last_key));
  for (size_t c = 0; c < acc_cols.size(); ++c) {
    out_names.push_back(acc_names[c]);
    out_cols.push_back(std::move(acc_cols[c]));
  }
  {
    GPUJOIN_ASSIGN_OR_RETURN(
        auto id_col, DeviceColumn::Allocate(device, DataType::kInt32, ids.size()));
    for (uint64_t t = 0; t < ids.size(); ++t) {
      id_col.Set(t, static_cast<int64_t>(ids[t]));
    }
    out_names.emplace_back("fact_id");
    out_cols.push_back(std::move(id_col));
  }
  res.output = Table::FromColumns("pipeline_result", std::move(out_names),
                                  std::move(out_cols));

  res.total_seconds = device.ElapsedSeconds() - t0;
  uint64_t input_tuples = fact.num_rows();
  for (const Table& d : dims) input_tuples += d.num_rows();
  res.throughput_tuples_per_sec =
      res.total_seconds > 0
          ? static_cast<double>(input_tuples) / res.total_seconds
          : 0;
  return res;
}

}  // namespace gpujoin::join
