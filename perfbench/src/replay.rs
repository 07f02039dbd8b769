//! Replays of engine steps through the layers' public functions.
//!
//! `Canopus::write` and `CanopusReader::read_level` run several crates
//! inside one call, so spans around the call cannot split its time. In a
//! traced run each such step is repeated on the same inputs through the
//! public functions of each layer, under a [`REPLAY`](crate::trace::REPLAY)
//! root; the table charges the replayed layers' time to those layers and
//! leaves the engine's remainder as `core.*.unattributed`.

use crate::trace::Tracer;
use canopus::{Canopus, CanopusConfig};
use canopus_adios::BpFile;
use canopus_compress::{Chunked, Codec, CodecKind, CHUNKED_CODEC_ID_FLAG};
use canopus_mesh::{FieldStats, TriMesh};
use canopus_refactor::mapping::mapping_from_bytes;
use canopus_refactor::{build_mapping, compute_delta, decimate, restore_level};
use canopus_storage::StorageHierarchy;
use std::hint::black_box;

/// Streams shorter than this compress as one frame, longer ones are
/// chunk-framed across the cores, as the write engine does by default.
const CHUNK_MIN_ELEMS: usize = 4096;

fn compress(kind: CodecKind, values: &[f64]) -> Vec<u8> {
    let codec = kind.build();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let out = if values.len() >= CHUNK_MIN_ELEMS {
        Chunked::new(codec, values.len().div_ceil(cores).max(512)).compress(values)
    } else {
        codec.compress(values)
    };
    out.expect("codec accepts finite input")
}

/// Replay one `Canopus::write`: decimation chain, mappings and deltas,
/// compression of base and deltas, and the tier puts (into `scratch`,
/// which is cleared afterwards). Returns the edge collapses performed.
pub fn write(
    tr: &Tracer,
    engine_span: usize,
    req: u64,
    scratch: &StorageHierarchy,
    mesh: &TriMesh,
    data: &[f64],
) -> u64 {
    let cfg = CanopusConfig::default();
    let levels = cfg.refactor.num_levels.max(1) as usize;
    let collapses = tr.replay(engine_span, req, || {
        let mut meshes = vec![mesh.clone()];
        let mut values = vec![data.to_vec()];
        let mut collapses = 0u64;
        tr.span("refactor.decimate", req, || {
            for l in 0..levels - 1 {
                let r = decimate(&meshes[l], &values[l], cfg.refactor.per_level_ratio);
                collapses += r.collapses as u64;
                meshes.push(r.mesh);
                values.push(r.data);
            }
        });
        let deltas: Vec<Vec<f64>> = tr.span("refactor.map_delta", req, || {
            (0..levels - 1)
                .map(|l| {
                    let mapping = build_mapping(&meshes[l], &meshes[l + 1]);
                    compute_delta(
                        &meshes[l],
                        &values[l],
                        &meshes[l + 1],
                        &values[l + 1],
                        &mapping,
                        cfg.refactor.estimator,
                    )
                })
                .collect()
        });
        let kind = cfg.codec.resolve(FieldStats::of(data).range());
        let streams: Vec<Vec<u8>> = tr.span("compress.encode", req, || {
            std::iter::once(&values[levels - 1])
                .chain(deltas.iter().rev())
                .map(|v| compress(kind, v))
                .collect()
        });
        tr.span("storage.put", req, || {
            for (i, bytes) in streams.into_iter().enumerate() {
                let tier = if i == 0 { 0 } else { 1 };
                scratch
                    .write_to_tier(tier, &format!("replay/{i}"), bytes.into())
                    .expect("scratch tiers are unbounded");
            }
        });
        collapses
    });
    scratch.clear();
    collapses
}

/// Parse the level metadata block the writer stores beside each level:
/// `u32` mesh length, mesh bytes, `u32` mapping length, mapping bytes.
fn level_meta(bytes: &[u8]) -> Option<(TriMesh, Vec<u32>)> {
    let take = |b: &[u8]| -> Option<(usize, usize)> {
        let len = u32::from_le_bytes(b.get(..4)?.try_into().ok()?) as usize;
        (b.len() >= 4 + len).then_some((4, 4 + len))
    };
    let (a, b) = take(bytes)?;
    let mesh = canopus_mesh::io::from_binary(&bytes[a..b]).ok()?;
    let rest = &bytes[b..];
    let (c, d) = take(rest)?;
    let mapping = mapping_from_bytes(&rest[c..d]).ok()?;
    Some((mesh, mapping))
}

fn decode(block: &canopus_adios::BlockMeta, bytes: &[u8]) -> Option<Vec<f64>> {
    let kind = match block.codec_id & !CHUNKED_CODEC_ID_FLAG {
        0 => CodecKind::Raw,
        1 => CodecKind::ZfpLike {
            tolerance: block.codec_param,
        },
        2 => CodecKind::SzLike {
            error_bound: block.codec_param,
        },
        3 => CodecKind::Fpc,
        _ => return None,
    };
    let codec = kind.build();
    let n = block.elements as usize;
    if block.codec_id & CHUNKED_CODEC_ID_FLAG != 0 {
        Chunked::for_decode(codec).decompress(bytes, n).ok()
    } else {
        codec.decompress(bytes, n).ok()
    }
}

/// Replay one cold read of `var` at `target` (base read when `target` is
/// the coarsest level): block reads off the tiers, decode, and the
/// restore walk. Returns `None` when the stored layout is one this replay
/// does not know (the engine's time then stays unattributed).
pub fn read(
    tr: &Tracer,
    engine_span: usize,
    req: u64,
    canopus: &Canopus,
    file: &str,
    var: &str,
    target: u32,
) -> Option<()> {
    tr.replay(engine_span, req, || {
        let bp: BpFile = canopus.store().open(file).ok()?;
        let base_level = bp.meta().num_levels.checked_sub(1)?;
        let v = bp.inq_var(var).ok()?;
        let base = v.base()?.clone();
        let plan = bp.restore_plan(var, base_level, target).ok()?;
        let mut metas = Vec::new();
        for l in target..=base_level {
            metas.push((l, v.metadata_for(l)?.clone()));
        }
        if plan.iter().any(|(_, blocks)| blocks.len() != 1) {
            return None;
        }
        let fetched = tr.span("storage.get", req, || {
            let base_bytes = bp.read_block(&base).ok()?.0;
            let mut deltas = Vec::new();
            for (finer, blocks) in &plan {
                deltas.push((*finer, &blocks[0], bp.read_block(&blocks[0]).ok()?.0));
            }
            let mut meta_bytes = Vec::new();
            for (l, m) in &metas {
                meta_bytes.push((*l, bp.read_block(m).ok()?.0));
            }
            Some((base_bytes, deltas, meta_bytes))
        })?;
        let (base_bytes, deltas, meta_bytes) = fetched;
        let mut geometry = std::collections::BTreeMap::new();
        for (l, bytes) in &meta_bytes {
            geometry.insert(*l, level_meta(bytes)?);
        }
        let decoded = tr.span("compress.decode", req, || {
            let base_values = decode(&base, &base_bytes)?;
            let mut out = Vec::new();
            for (finer, block, bytes) in &deltas {
                out.push((*finer, decode(block, bytes)?));
            }
            Some((base_values, out))
        })?;
        let (mut current, delta_values) = decoded;
        let estimator = CanopusConfig::default().refactor.estimator;
        tr.span("refactor.restore", req, || {
            for (finer, delta) in &delta_values {
                let (fine_mesh, mapping) = geometry.get(finer)?;
                let (coarse_mesh, _) = geometry.get(&(finer + 1))?;
                current =
                    restore_level(fine_mesh, delta, coarse_mesh, &current, mapping, estimator);
            }
            Some(())
        })?;
        black_box(&current);
        Some(())
    })
}
