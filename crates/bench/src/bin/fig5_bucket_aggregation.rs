//! Regenerates Figure 5: MSM bucket-aggregation latency, SZKP's serial
//! schedule versus zkSpeed's grouped schedule, for window sizes 7-10.

use zkspeed_bench::banner;
use zkspeed_core::{aggregation_cycles, AggregationSchedule};

fn main() {
    banner("Figure 5 reproduction: bucket aggregation latency (cycles)");
    println!(
        "{:>12} {:>14} {:>14} {:>12}",
        "Window", "SZKP", "zkSpeed", "Reduction"
    );
    let mut reductions = Vec::new();
    for w in 7..=10usize {
        let buckets = (1usize << w) - 1;
        let serial = aggregation_cycles(buckets, AggregationSchedule::SzkpSerial);
        let grouped = aggregation_cycles(buckets, AggregationSchedule::Grouped { group_size: 16 });
        let reduction = 1.0 - grouped / serial;
        reductions.push(reduction);
        println!(
            "{:>12} {:>14.0} {:>14.0} {:>11.1}%",
            w,
            serial,
            grouped,
            reduction * 100.0
        );
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64 * 100.0;
    println!("\nAverage reduction: {avg:.1}% (paper reports an average of 92%)");
}
