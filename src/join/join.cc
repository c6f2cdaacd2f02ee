#include "join/join.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "join/transform.h"
#include "obs/trace.h"
#include "prim/bucket_chain.h"
#include "prim/gather.h"
#include "prim/hash_join.h"
#include "prim/match.h"
#include "prim/merge_join.h"

namespace gpujoin::join {

const char* JoinAlgoName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kSmjUm:
      return "SMJ-UM";
    case JoinAlgo::kSmjOm:
      return "SMJ-OM";
    case JoinAlgo::kPhjUm:
      return "PHJ-UM";
    case JoinAlgo::kPhjOm:
      return "PHJ-OM";
    case JoinAlgo::kNphj:
      return "NPHJ";
  }
  return "?";
}

const char* JoinAlgoShortName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kSmjUm:
      return "SU";
    case JoinAlgo::kSmjOm:
      return "SO";
    case JoinAlgo::kPhjUm:
      return "PU";
    case JoinAlgo::kPhjOm:
      return "PO";
    case JoinAlgo::kNphj:
      return "NP";
  }
  return "?";
}

namespace {

template <typename K>
const vgpu::DeviceBuffer<K>& KeyBuffer(const DeviceColumn& col);
template <>
const vgpu::DeviceBuffer<int32_t>& KeyBuffer<int32_t>(const DeviceColumn& col) {
  return col.i32();
}
template <>
const vgpu::DeviceBuffer<int64_t>& KeyBuffer<int64_t>(const DeviceColumn& col) {
  return col.i64();
}

template <typename K>
DeviceColumn WrapKeyBuffer(vgpu::DeviceBuffer<K> buf) {
  if constexpr (sizeof(K) == 4) {
    return DeviceColumn::WrapI32(std::move(buf));
  } else {
    return DeviceColumn::WrapI64(std::move(buf));
  }
}

/// Replays a bucket-chain layout onto a payload column (narrow PHJ-UM side).
template <typename K>
Result<DeviceColumn> ApplyBucketChainToColumn(
    vgpu::Device& device, const prim::BucketChainLayout<K>& layout,
    const DeviceColumn& src) {
  if (src.type() == DataType::kInt32) {
    GPUJOIN_ASSIGN_OR_RETURN(
        auto pool, prim::ApplyBucketChainToValues(device, layout, src.i32()));
    return DeviceColumn::WrapI32(std::move(pool));
  }
  GPUJOIN_ASSIGN_OR_RETURN(
      auto pool, prim::ApplyBucketChainToValues(device, layout, src.i64()));
  return DeviceColumn::WrapI64(std::move(pool));
}

/// Transform state of one input relation.
template <typename K>
struct SideState {
  // Dense transforms (SMJ-*, PHJ-OM):
  vgpu::DeviceBuffer<K> t_keys;
  DeviceColumn t_pay1;             // Transformed first payload (OM, or narrow UM).
  std::vector<DeviceColumn> t_pays_rest;  // Eager GFTR: payloads 2..n.
  vgpu::DeviceBuffer<RowId> t_ids; // Transformed physical IDs (wide UM).
  std::vector<uint64_t> offsets;   // Partition boundaries (PHJ-OM).
  prim::RadixHistograms hist;      // Digit counts of the keys, for GFTR re-transforms.

  // Bucket chains (PHJ-UM):
  std::optional<prim::BucketChainLayout<K>> bc;
  DeviceColumn bc_pay1;             // Narrow UM payload pool.
  vgpu::DeviceBuffer<RowId> bc_ids; // Wide UM physical-ID pool.
};

/// One side's join-relevant description.
struct SideDesc {
  const Table* table;
  int n_payloads;
  bool narrow;  // Exactly one payload: ride it through the transform.
};

template <typename K>
Result<JoinRunResult> JoinDriver(vgpu::Device& device, JoinAlgo algo,
                                 const Table& r, const Table& s,
                                 const JoinOptions& opts) {
  const auto& r_keys = KeyBuffer<K>(r.column(0));
  const auto& s_keys = KeyBuffer<K>(s.column(0));
  const SideDesc rd{&r, r.num_columns() - 1, r.num_columns() - 1 == 1};
  const SideDesc sd{&s, s.num_columns() - 1, s.num_columns() - 1 == 1};
  const bool narrow_join = rd.n_payloads <= 1 && sd.n_payloads <= 1;

  const auto [capacity, radix_bits, bits1, bits2, bucket_elems] =
      SizePartitions<K>(device, r.num_rows(), opts.radix_bits_override);

  device.ResetPeakMemory();
  JoinRunResult res;
  const vgpu::KernelStats stats_before = device.total_stats();
  obs::TraceSpan query_span(device, "query",
                            std::string("join:") + JoinAlgoName(algo));
  query_span.Annotate("algo", JoinAlgoName(algo));
  query_span.Annotate("r_rows", std::to_string(r.num_rows()));
  query_span.Annotate("s_rows", std::to_string(s.num_rows()));
  const double t0 = device.ElapsedSeconds();

  // =========================== Transformation ===========================
  SideState<K> rs, ss;
  const bool is_smj = algo == JoinAlgo::kSmjUm || algo == JoinAlgo::kSmjOm;
  const bool is_om = algo == JoinAlgo::kSmjOm || algo == JoinAlgo::kPhjOm;
  const TransformKind tkind = is_smj ? TransformKind::kSort : TransformKind::kPartition;

  auto transform_dense_side = [&](const SideDesc& side,
                                  const vgpu::DeviceBuffer<K>& keys,
                                  SideState<K>* state) -> Status {
    vgpu::AllocTagScope tag(device, "join:transform:" + side.table->name());
    const bool carry_payload = side.narrow || (is_om && side.n_payloads >= 1);
    if (carry_payload) {
      GPUJOIN_ASSIGN_OR_RETURN(
          state->t_pay1,
          TransformKeyPayload(device, keys, side.table->column(1),
                              &state->t_keys, tkind, radix_bits,
                              /*discard_keys=*/false, &state->hist));
      if (is_om && opts.eager_transform) {
        // Early-materialization ablation: transform the remaining payload
        // columns up front and keep them all resident.
        for (int c = 2; c <= side.n_payloads; ++c) {
          vgpu::DeviceBuffer<K> t_keys_again;
          GPUJOIN_ASSIGN_OR_RETURN(
              DeviceColumn t_pay,
              TransformKeyPayload(device, keys, side.table->column(c),
                                  &t_keys_again, tkind, radix_bits,
                                  /*discard_keys=*/false, &state->hist));
          t_keys_again.Release();
          state->t_pays_rest.push_back(std::move(t_pay));
        }
      }
    } else if (side.n_payloads == 0) {
      // Keys only: nothing is materialized from this side.
      GPUJOIN_RETURN_IF_ERROR(TransformKeysOutOfPlace(
          device, keys, &state->t_keys, tkind, radix_bits, &state->hist));
    } else {
      // Initialize physical tuple identifiers and transform (GFUR).
      GPUJOIN_ASSIGN_OR_RETURN(
          auto ids, vgpu::DeviceBuffer<RowId>::Allocate(device, keys.size()));
      GPUJOIN_RETURN_IF_ERROR(prim::Iota(device, &ids));
      GPUJOIN_RETURN_IF_ERROR(TransformPairOutOfPlace(
          device, keys, ids, &state->t_keys, &state->t_ids, tkind, radix_bits,
          /*discard_keys=*/false, &state->hist));
      ids.Release();
    }
    // Only Algorithm 1's lazy re-transforms read the histograms again.
    if (!is_om || opts.eager_transform || side.n_payloads < 2) {
      state->hist.Release();
    }
    if (algo == JoinAlgo::kPhjOm) {
      GPUJOIN_RETURN_IF_ERROR(prim::ComputePartitionOffsets(
          device, state->t_keys, radix_bits, &state->offsets));
    }
    return Status::OK();
  };

  auto transform_chain_side = [&](const SideDesc& side,
                                  const vgpu::DeviceBuffer<K>& keys,
                                  SideState<K>* state) -> Status {
    vgpu::AllocTagScope tag(device, "join:transform:" + side.table->name());
    GPUJOIN_ASSIGN_OR_RETURN(
        auto layout,
        prim::BuildBucketChainLayout(device, keys, bits1, bits2,
                                     bucket_elems));
    state->bc.emplace(std::move(layout));
    if (side.narrow) {
      GPUJOIN_ASSIGN_OR_RETURN(
          state->bc_pay1,
          ApplyBucketChainToColumn(device, *state->bc, side.table->column(1)));
    } else if (side.n_payloads > 0) {
      GPUJOIN_ASSIGN_OR_RETURN(
          auto ids, vgpu::DeviceBuffer<RowId>::Allocate(device, keys.size()));
      GPUJOIN_RETURN_IF_ERROR(prim::Iota(device, &ids));
      GPUJOIN_ASSIGN_OR_RETURN(
          state->bc_ids, prim::ApplyBucketChainToValues(device, *state->bc, ids));
      ids.Release();
    }
    return Status::OK();
  };

  {
    // NPHJ has no transformation phase: no span, and 0 cycles elapse here.
    std::optional<obs::TraceSpan> transform_span;
    if (algo != JoinAlgo::kNphj) {
      transform_span.emplace(device, "phase", "transform");
    }
    switch (algo) {
      case JoinAlgo::kSmjUm:
      case JoinAlgo::kSmjOm:
      case JoinAlgo::kPhjOm:
        GPUJOIN_RETURN_IF_ERROR(transform_dense_side(rd, r_keys, &rs));
        GPUJOIN_RETURN_IF_ERROR(transform_dense_side(sd, s_keys, &ss));
        break;
      case JoinAlgo::kPhjUm:
        GPUJOIN_RETURN_IF_ERROR(transform_chain_side(rd, r_keys, &rs));
        GPUJOIN_RETURN_IF_ERROR(transform_chain_side(sd, s_keys, &ss));
        break;
      case JoinAlgo::kNphj:
        break;  // No transformation phase (keys are consumed in place).
    }
  }
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
  const double t1 = device.ElapsedSeconds();
  res.phases.transform_s = t1 - t0;

  // ============================ Match finding ============================
  // A narrow join's payloads rode the transform: the match sweep writes them
  // into the output itself (no positions, no gathers). Wide joins and NPHJ
  // emit positions for the materialization phase.
  const bool emit_payloads = narrow_join && algo != JoinAlgo::kNphj;
  auto side_emit = [&](const SideDesc& side, const SideState<K>& state) {
    if (!emit_payloads) return prim::SideEmit::Positions();
    if (side.n_payloads == 0) return prim::SideEmit::Nothing();
    return prim::SideEmit::Payload(algo == JoinAlgo::kPhjUm ? state.bc_pay1
                                                            : state.t_pay1);
  };
  const prim::MatchEmit emit{side_emit(rd, rs), side_emit(sd, ss)};
  prim::MatchResult<K> match;
  std::optional<obs::TraceSpan> match_span;
  match_span.emplace(device, "phase", "match");
  {
    vgpu::AllocTagScope tag(device, "join:match");
    switch (algo) {
    case JoinAlgo::kSmjUm:
    case JoinAlgo::kSmjOm: {
      GPUJOIN_ASSIGN_OR_RETURN(
          match, prim::MergeJoinSorted(device, rs.t_keys, ss.t_keys,
                                       opts.pk_fk, emit));
      break;
    }
    case JoinAlgo::kPhjOm: {
      GPUJOIN_ASSIGN_OR_RETURN(
          match, prim::HashJoinCoPartitioned(device, rs.t_keys, ss.t_keys,
                                             rs.offsets, ss.offsets, capacity,
                                             emit));
      break;
    }
    case JoinAlgo::kPhjUm: {
      GPUJOIN_ASSIGN_OR_RETURN(
          match, prim::HashJoinBucketChains(device, *rs.bc, *ss.bc, capacity,
                                            emit));
      break;
    }
    case JoinAlgo::kNphj: {
      GPUJOIN_ASSIGN_OR_RETURN(match,
                               prim::HashJoinGlobal(device, r_keys, s_keys));
      break;
    }
    }
  }
  res.output_rows = match.count();

  // GFUR: translate positions into physical tuple IDs (T' = (k, ID_R, ID_S)).
  // The gathers are clustered (positions ascend), so this is cheap; the
  // expense moved to the materialization phase — the paper's §3.3 point.
  vgpu::DeviceBuffer<RowId> r_ids_at_match, s_ids_at_match;
  if (!is_om && algo != JoinAlgo::kNphj) {
    if (!rd.narrow && rd.n_payloads > 0) {
      GPUJOIN_ASSIGN_OR_RETURN(r_ids_at_match,
                               vgpu::DeviceBuffer<RowId>::Allocate(
                                   device, match.count(), "join:r_ids_at_match"));
      const auto& ids = algo == JoinAlgo::kPhjUm ? rs.bc_ids : rs.t_ids;
      GPUJOIN_RETURN_IF_ERROR(
          prim::Gather(device, ids, match.r_pos, &r_ids_at_match));
    }
    if (!sd.narrow && sd.n_payloads > 0) {
      GPUJOIN_ASSIGN_OR_RETURN(s_ids_at_match,
                               vgpu::DeviceBuffer<RowId>::Allocate(
                                   device, match.count(), "join:s_ids_at_match"));
      const auto& ids = algo == JoinAlgo::kPhjUm ? ss.bc_ids : ss.t_ids;
      GPUJOIN_RETURN_IF_ERROR(
          prim::Gather(device, ids, match.s_pos, &s_ids_at_match));
    }
  }

  // The output key column and a narrow join's payloads were written during
  // match finding.
  std::vector<std::string> out_names;
  std::vector<DeviceColumn> out_cols;
  out_names.push_back(r.column_name(0));
  out_cols.push_back(WrapKeyBuffer<K>(std::move(match.keys)));
  if (emit_payloads) {
    if (rd.n_payloads == 1) {
      out_names.push_back(r.column_name(1));
      out_cols.push_back(std::move(match.r_pay));
    }
    if (sd.n_payloads == 1) {
      out_names.push_back(s.column_name(1));
      out_cols.push_back(std::move(match.s_pay));
    }
  }

  // Free transform-phase state that is dead after match finding.
  // GFUR frees everything; GFTR keeps the transformed first payloads.
  auto release_side_keys = [&](SideState<K>* state) {
    state->t_keys.Release();
    state->t_ids.Release();
    state->bc_ids.Release();
    if (state->bc.has_value()) state->bc->keys.Release();
  };
  release_side_keys(&rs);
  release_side_keys(&ss);
  if (narrow_join) {
    rs.t_pay1.Release();
    ss.t_pay1.Release();
    rs.bc_pay1.Release();
    ss.bc_pay1.Release();
  }

  match_span.reset();
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
  const double t2 = device.ElapsedSeconds();
  res.phases.match_s = t2 - t1;

  // ============================ Materialization ==========================
  // NPHJ always materializes through gathers (it has no transform to ride);
  // the other implementations emitted narrow-join payloads while matching.
  // Output payload columns are allocated lazily, one per gather, matching
  // Algorithm 1's free-on-exit discipline.
  if (!emit_payloads) {
    obs::TraceSpan mat_span(device, "phase", "materialize");
    vgpu::AllocTagScope mat_tag(device, "join:materialize");
    // R side, then S side; first payload (if transformed) gathers from the
    // kept transformed column, the rest follow Algorithm 1 (re-transform
    // lazily, gather, free).
    struct MatSide {
      const SideDesc* desc;
      SideState<K>* state;
      const vgpu::DeviceBuffer<K>* keys;
      const vgpu::DeviceBuffer<RowId>* pos;
      const vgpu::DeviceBuffer<RowId>* ids;
    };
    const MatSide sides[2] = {
        {&rd, &rs, &r_keys, &match.r_pos, &r_ids_at_match},
        {&sd, &ss, &s_keys, &match.s_pos, &s_ids_at_match},
    };
    for (const MatSide& m : sides) {
      const Table& t = *m.desc->table;
      for (int c = 1; c <= m.desc->n_payloads; ++c) {
        // The output column is allocated by the gather, AFTER any lazy
        // re-transform has already released its scratch (Algorithm 1's
        // free-on-exit discipline keeps the peak down, §4.4).
        DeviceColumn out_col;
        if (algo == JoinAlgo::kNphj) {
          // Build side: unclustered; probe side: clustered (§5.2.2).
          GPUJOIN_ASSIGN_OR_RETURN(out_col,
                                   GatherColumn(device, t.column(c), *m.pos));
        } else if (!is_om) {
          if (m.desc->narrow) {
            // Narrow side of a wide GFUR join: payload rode the transform.
            const DeviceColumn& pool = algo == JoinAlgo::kPhjUm
                                           ? m.state->bc_pay1
                                           : m.state->t_pay1;
            GPUJOIN_ASSIGN_OR_RETURN(out_col, GatherColumn(device, pool, *m.pos));
          } else {
            // GFUR: unclustered gather from the untransformed relation.
            GPUJOIN_ASSIGN_OR_RETURN(out_col,
                                     GatherColumn(device, t.column(c), *m.ids));
          }
        } else {
          // GFTR (Algorithm 1).
          if (c == 1) {
            GPUJOIN_ASSIGN_OR_RETURN(
                out_col, GatherColumn(device, m.state->t_pay1, *m.pos));
            m.state->t_pay1.Release();
          } else if (opts.eager_transform) {
            DeviceColumn& t_pay = m.state->t_pays_rest[c - 2];
            GPUJOIN_ASSIGN_OR_RETURN(out_col, GatherColumn(device, t_pay, *m.pos));
            t_pay.Release();
          } else {
            // Algorithm 1: transform (key, payload_c) lazily, gather, free.
            // The transformed keys are never read again: discard them.
            vgpu::DeviceBuffer<K> t_keys_again;
            GPUJOIN_ASSIGN_OR_RETURN(
                DeviceColumn t_pay,
                TransformKeyPayload(device, *m.keys, t.column(c), &t_keys_again,
                                    tkind, radix_bits, /*discard_keys=*/true,
                                    &m.state->hist));
            t_keys_again.Release();
            GPUJOIN_ASSIGN_OR_RETURN(out_col, GatherColumn(device, t_pay, *m.pos));
            t_pay.Release();
          }
        }
        out_names.push_back(t.column_name(c));
        out_cols.push_back(std::move(out_col));
      }
      // This side is fully materialized: its histograms, match positions
      // and gathered IDs are dead — free them before the other side's
      // transforms peak.
      m.state->hist.Release();
      if (m.pos == &match.r_pos) {
        match.r_pos.Release();
        r_ids_at_match.Release();
      }
    }
  }
  const double t3 = device.ElapsedSeconds();
  res.phases.materialize_s = t3 - t2;

  // A query whose last kernel tripped the deadline (or whose token was
  // cancelled after the final allocation) must still return the lifecycle
  // stop, not a completed result.
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
  res.output = Table::FromColumns("join_result", std::move(out_names),
                                  std::move(out_cols));
  res.peak_mem_bytes = device.memory_stats().peak_bytes;
  res.stats = device.total_stats();
  res.stats.Sub(stats_before);
  const double total = t3 - t0;
  res.throughput_tuples_per_sec =
      total > 0 ? static_cast<double>(r.num_rows() + s.num_rows()) / total : 0;
  return res;
}

}  // namespace

Result<JoinRunResult> RunJoin(vgpu::Device& device, JoinAlgo algo, const Table& r,
                              const Table& s, const JoinOptions& options) {
  if (r.num_columns() < 1 || s.num_columns() < 1) {
    return Status::InvalidArgument("RunJoin: tables need at least a key column");
  }
  if (r.column(0).type() != s.column(0).type()) {
    return Status::InvalidArgument("RunJoin: key column types differ");
  }
  if (r.num_rows() == 0 || s.num_rows() == 0) {
    return Status::InvalidArgument("RunJoin: empty input relation");
  }
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
  if (r.column(0).type() == DataType::kInt32) {
    return JoinDriver<int32_t>(device, algo, r, s, options);
  }
  return JoinDriver<int64_t>(device, algo, r, s, options);
}

}  // namespace gpujoin::join
