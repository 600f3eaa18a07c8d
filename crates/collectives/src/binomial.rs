//! Binomial-tree broadcast.
//!
//! Used by the parameter-server-free initialization of the trainer
//! (every rank must start from identical weights, which MPI programs
//! typically establish with a broadcast from rank 0) and as an ablation
//! point for the cost models. Cost: `⌈log₂ P⌉·(α + n·β)`.

use mpsim::{Communicator, Result, Tag};

const BCAST_TAG: Tag = (1 << 48) + 64;

/// Binomial broadcast from `root`. Non-root ranks may pass an empty
/// vector; on return every rank holds the root's data.
pub fn bcast_binomial(comm: &Communicator, data: &mut Vec<f64>, root: usize) -> Result<()> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let _span = comm.trace_span(
        "collective",
        "bcast_binomial",
        &[("p", p as f64), ("words", data.len() as f64)],
    );
    let vrank = (comm.rank() + p - root) % p;
    // Find the highest power of two <= p.
    let mut mask = 1usize;
    while mask < p {
        mask <<= 1;
    }
    mask >>= 1;
    // Receive phase: the lowest set bit of vrank determines the parent.
    if vrank != 0 {
        let lsb = vrank & vrank.wrapping_neg();
        let parent_v = vrank - lsb;
        let parent = (parent_v + root) % p;
        *data = comm.recv(parent, BCAST_TAG)?;
    }
    // Send phase: forward to children vrank + m for each m below our lsb
    // (or below p for the root), from high to low.
    let limit = if vrank == 0 {
        mask << 1
    } else {
        vrank & vrank.wrapping_neg()
    };
    let mut m = mask;
    while m >= 1 {
        if m < limit && vrank + m < p {
            let child = (vrank + m + root) % p;
            comm.send(child, BCAST_TAG, data)?;
        }
        if m == 1 {
            break;
        }
        m >>= 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{NetModel, World};

    #[test]
    fn bcast_delivers_root_data_all_roots() {
        for p in [1, 2, 3, 4, 5, 8, 9] {
            for root in [0, p - 1, p / 2] {
                let out = World::run(p, NetModel::free(), move |comm| {
                    let mut data = if comm.rank() == root {
                        vec![1.0, 2.0, 3.0]
                    } else {
                        Vec::new()
                    };
                    bcast_binomial(comm, &mut data, root).unwrap();
                    data
                });
                for r in 0..p {
                    assert_eq!(out[r], vec![1.0, 2.0, 3.0], "p={p} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    fn bcast_time_is_logarithmic() {
        let model = NetModel {
            alpha: 1.0,
            beta: 0.0,
            flops: f64::INFINITY,
        };
        let p = 16;
        let out = World::run(p, model, |comm| {
            let mut data = if comm.rank() == 0 {
                vec![7.0]
            } else {
                Vec::new()
            };
            bcast_binomial(comm, &mut data, 0).unwrap();
            comm.now()
        });
        let max = out.iter().cloned().fold(0.0, f64::max);
        assert!(
            (max - 4.0).abs() < 1e-12,
            "binomial depth log2(16)=4, got {max}"
        );
    }
}
