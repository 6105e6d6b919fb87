//! Request coalescing: group admitted jobs that scan the same genome with
//! the same PAM pattern, so each genome chunk is uploaded once and the
//! finder runs once per *batch* instead of once per *job*.
//!
//! The unit of device work downstream is a [`ChunkBatch`]: one cached
//! chunk plus the queries of every job in the group. A batch of `k` jobs
//! costs one chunk upload, one finder launch and `k` comparer launches —
//! the serial pipelines would pay `k` of each.

use std::collections::HashMap;
use std::sync::Arc;

use cas_offinder::Query;

use crate::cache::EncodedChunk;
use crate::job::{Job, JobId};

/// What makes jobs coalescible: same assembly, same PAM pattern (the
/// finder's output depends on both, the comparer adds the per-job query).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// Registered assembly name.
    pub assembly: String,
    /// PAM pattern shared by every job in the batch.
    pub pattern: Vec<u8>,
}

/// One job's membership in a batch.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The owning job.
    pub id: JobId,
    /// The job's guide + threshold as a pipeline query.
    pub query: Query,
}

/// One unit of device work: a chunk and the coalesced queries to run on it.
pub struct ChunkBatch {
    /// The coalescing key the batch was formed under.
    pub key: BatchKey,
    /// Chunk ordinal within the assembly.
    pub chunk_index: usize,
    /// The cached chunk bytes.
    pub chunk: Arc<EncodedChunk>,
    /// Jobs coalesced onto this chunk, in admission order.
    pub jobs: Vec<BatchJob>,
}

/// Partition `jobs` into coalescible groups of at most `max_batch`
/// members, preserving admission order within each group.
pub(crate) fn group_jobs(jobs: Vec<Job>, max_batch: usize) -> Vec<(BatchKey, Vec<Job>)> {
    assert!(max_batch > 0, "max_batch must be positive");
    let mut order: Vec<BatchKey> = Vec::new();
    let mut by_key: HashMap<BatchKey, Vec<Vec<Job>>> = HashMap::new();
    for job in jobs {
        let key = BatchKey {
            assembly: job.spec.assembly.clone(),
            pattern: job.spec.pattern.clone(),
        };
        let groups = by_key.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            Vec::new()
        });
        match groups.last_mut() {
            Some(last) if last.len() < max_batch => last.push(job),
            _ => groups.push(vec![job]),
        }
    }
    order
        .into_iter()
        .flat_map(|key| {
            let groups = by_key.remove(&key).unwrap_or_default();
            groups.into_iter().map(move |g| (key.clone(), g))
        })
        .collect()
}

/// Reorder `batches` so that every planned owner's work arrives spread
/// evenly across the round: bucket every batch by the owner the
/// [`ShardPlan`] assigns its chunk, then merge the buckets by virtual
/// time — item `k` of an `n`-item bucket sits at `(k + 0.5) / n`, so a
/// device owning twice the chunks appears twice as often in the merged
/// stream. Dispatching a round of consecutive chunk indices in plan
/// order would otherwise fill one owner's in-flight window while its
/// siblings idle; a strict round-robin merge would instead starve the
/// heavier owners at the tail. Relative order *within* each owner's
/// bucket is preserved, so the reordering never changes results
/// (batches are independent units of work).
pub(crate) fn interleave_by_owner(
    batches: Vec<ChunkBatch>,
    plan: &crate::shard::ShardPlan,
) -> Vec<ChunkBatch> {
    let mut tagged: Vec<(f64, usize, ChunkBatch)> = Vec::with_capacity(batches.len());
    let mut counts = vec![0usize; plan.device_count()];
    let mut seen = vec![0usize; plan.device_count()];
    for batch in &batches {
        counts[plan.owner_of(&batch.key.assembly, batch.chunk_index)] += 1;
    }
    for batch in batches {
        let owner = plan.owner_of(&batch.key.assembly, batch.chunk_index);
        let vtime = (seen[owner] as f64 + 0.5) / counts[owner] as f64;
        seen[owner] += 1;
        tagged.push((vtime, owner, batch));
    }
    // Stable sort: equal (vtime, owner) keeps bucket order; vtime ties
    // across owners break toward the lower device index.
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    tagged.into_iter().map(|(_, _, batch)| batch).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn job(id: u64, assembly: &str, pattern: &[u8]) -> Job {
        Job {
            id,
            spec: JobSpec::new(assembly, pattern.to_vec(), vec![b'A'; pattern.len()], 2),
            cost: 1,
        }
    }

    #[test]
    fn groups_split_by_assembly_and_pattern() {
        let groups = group_jobs(
            vec![
                job(0, "a", b"NGG"),
                job(1, "b", b"NGG"),
                job(2, "a", b"NGG"),
                job(3, "a", b"NAG"),
            ],
            8,
        );
        assert_eq!(groups.len(), 3);
        let ids: Vec<Vec<u64>> = groups
            .iter()
            .map(|(_, g)| g.iter().map(|j| j.id).collect())
            .collect();
        assert_eq!(ids, vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn bulge_variants_coalesce_with_plain_jobs_under_the_shared_pattern() {
        use cas_offinder::bulge::{enumerate_variants, BulgeLimits};
        use cas_offinder::Query;

        // Expand a bulge job exactly the way the batcher loop does: each
        // variant becomes a plain unit carrying its (possibly widened)
        // pattern. The zero-bulge variant keeps the original pattern, so it
        // must land in the same group as an ordinary plain job — one chunk
        // upload and one finder pass between them.
        let plain = job(0, "a", b"NNNNNGG");
        let query = Query::new(b"ACGTANN".to_vec(), 2);
        let limits = BulgeLimits {
            max_dna: 1,
            max_rna: 1,
        };
        let units: Vec<Job> = enumerate_variants(b"NNNNNGG", &query, limits)
            .into_iter()
            .map(|v| {
                let mut j = job(1, "a", &v.pattern);
                j.spec.guide = v.query;
                j
            })
            .collect();
        assert!(units.len() > 1, "the fixture must actually enumerate bulges");

        let mut jobs = vec![plain];
        jobs.extend(units);
        let groups = group_jobs(jobs, 64);
        let shared = groups
            .iter()
            .find(|(key, _)| key.pattern == b"NNNNNGG")
            .expect("the original pattern's group exists");
        let ids: Vec<u64> = shared.1.iter().map(|j| j.id).collect();
        assert!(
            ids.contains(&0) && ids.contains(&1),
            "plain job and zero-bulge variant share a group: {ids:?}"
        );
        // Widened patterns cannot share finder passes; they form their own
        // groups rather than silently corrupting the shared one.
        for (key, members) in &groups {
            if key.pattern != b"NNNNNGG" {
                assert!(members.iter().all(|j| j.id == 1), "{:?}", key.pattern);
            }
        }
    }

    #[test]
    fn interleaving_alternates_planned_owners_and_keeps_bucket_order() {
        use crate::cache::ChunkEncoding;
        use crate::shard::ShardPlan;

        let chunk = Arc::new(EncodedChunk::encode(
            0,
            "chr1".into(),
            0,
            8,
            &[b'A'; 11],
            ChunkEncoding::Adaptive,
        ));
        let batch = |index: usize| ChunkBatch {
            key: BatchKey {
                assembly: "a".into(),
                pattern: b"NGG".to_vec(),
            },
            chunk_index: index,
            chunk: Arc::clone(&chunk),
            jobs: Vec::new(),
        };
        // Two equal-weight devices over 6 chunks: device 0 owns 0..3,
        // device 1 owns 3..6. Consecutive indices land on one owner;
        // interleaving alternates them.
        let plan = ShardPlan::build(&[1.0, 1.0], &[("a".into(), 6)]);
        let out = interleave_by_owner((0..6).map(batch).collect(), &plan);
        let indices: Vec<usize> = out.iter().map(|b| b.chunk_index).collect();
        assert_eq!(indices, vec![0, 3, 1, 4, 2, 5]);

        // Unequal weights: device 0 owns 0..4, device 1 owns 4..6. The
        // virtual-time merge keeps the heavy owner flowing at double rate
        // instead of stalling it behind a strict alternation.
        let plan = ShardPlan::build(&[2.0, 1.0], &[("a".into(), 6)]);
        let out = interleave_by_owner((0..6).map(batch).collect(), &plan);
        let indices: Vec<usize> = out.iter().map(|b| b.chunk_index).collect();
        assert_eq!(indices, vec![0, 4, 1, 2, 5, 3]);
    }

    #[test]
    fn groups_respect_the_size_ceiling() {
        let jobs: Vec<Job> = (0..10).map(|i| job(i, "a", b"NGG")).collect();
        let groups = group_jobs(jobs, 4);
        let sizes: Vec<usize> = groups.iter().map(|(_, g)| g.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        // Admission order survives the split.
        let flat: Vec<u64> = groups
            .iter()
            .flat_map(|(_, g)| g.iter().map(|j| j.id))
            .collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }
}
