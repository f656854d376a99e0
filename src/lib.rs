//! Umbrella crate re-exporting the Digg-reproduction workspace.

// Library code returns typed errors and converts integers checked
// (DESIGN.md §13); test builds are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation
    )
)]

pub use digg_core as core;
pub use digg_data as data;
pub use digg_ml as ml;
pub use digg_sim as sim;
pub use digg_stats as stats;
pub use social_graph as graph;
