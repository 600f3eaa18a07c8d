//! Ablation: rank placement on a hierarchical network. The paper's
//! analysis assumes a flat interconnect (its Limitations section); real
//! clusters have fat nodes where intra-node messages are much cheaper.
//! This experiment executes one 1.5D layer (forward + backward) under a
//! fat-node topology with the two natural placements of the `Pr × Pc`
//! grid:
//!
//! * **row-major** — the ∆W all-reduce groups (`Pc`-sized) are
//!   contiguous, landing inside nodes;
//! * **column-major** — the activation all-gather/∆X groups
//!   (`Pr`-sized) are contiguous instead.
//!
//! Whichever dimension carries more traffic should be packed
//! intra-node; for an FC layer at large local batch that is the
//! activation (`Pr`) dimension.
//!
//! ```text
//! cargo run -p bench --bin ablation_topology
//! ```

use bench::parse_args;
use distmm::dist::{col_shard, row_shard};
use distmm::onep5d::{backward, forward, Grid};
use integrated::report::{fmt_seconds, Table};
use mpsim::{NetModel, RunOpts, Topology, World};
use tensor::init;

fn run(pr: usize, pc: usize, colmajor: bool, topo: Topology) -> f64 {
    let (d_out, d_in, b) = (64usize, 48usize, 32usize);
    let w = init::xavier(d_out, d_in, 1);
    let x = init::uniform(d_in, b, -1.0, 1.0, 2);
    let dy = init::uniform(d_out, b, -1.0, 1.0, 3);
    let mut model = NetModel::cori_knl();
    model.flops = f64::INFINITY; // communication only
    let opts = RunOpts {
        topo,
        ..RunOpts::default()
    };
    let (out, _, _) = World::run_opts(pr * pc, model, opts, |comm| {
        let grid = if colmajor {
            Grid::new_colmajor(comm, pr, pc).unwrap()
        } else {
            Grid::new(comm, pr, pc).unwrap()
        };
        let wl = row_shard(&w, pr, grid.i);
        let xl = col_shard(&x, pc, grid.j);
        let dyl = col_shard(&dy, pc, grid.j);
        let _y = forward(&grid, &wl, &xl).unwrap();
        let (_dw, _dx) = backward(&grid, &wl, &xl, &dyl).unwrap();
        comm.clock().comm
    });
    out.iter().cloned().fold(0.0, f64::max)
}

fn main() {
    let args = parse_args();
    let node = 4usize;
    let topo = Topology::fat_nodes(node);
    let mut t = Table::new(
        format!(
            "1.5D layer (64x48, B=32) on fat nodes of {node} ranks \
             (intra: 0.1x alpha, 0.25x beta)"
        ),
        &[
            "grid",
            "flat network",
            "row-major placement",
            "col-major placement",
            "better",
        ],
    );
    for (pr, pc) in [(4usize, 4usize), (8, 2), (2, 8), (4, 2), (2, 4)] {
        let flat = run(pr, pc, false, Topology::flat());
        let rowm = run(pr, pc, false, topo);
        let colm = run(pr, pc, true, topo);
        t.row(vec![
            format!("{pr}x{pc}"),
            fmt_seconds(flat),
            fmt_seconds(rowm),
            fmt_seconds(colm),
            if colm < rowm {
                "col-major".into()
            } else {
                "row-major".into()
            },
        ]);
    }
    print!("{}", if args.csv { t.to_csv() } else { t.render() });
    println!(
        "\nplacement matters: whichever collective's groups fit inside a node gets the\n\
         cheap links — col-major helps when the Pr-sized activation groups (all-gather\n\
         of Y + double-volume ∆X all-reduce) fit in a node, row-major when the Pc-sized\n\
         ∆W groups do. The paper's flat model can fold this in by adjusting alpha/beta\n\
         per grid dimension, exactly as its Limitations section suggests."
    );
}
