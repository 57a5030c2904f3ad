//! Experiment regenerators for every table and figure in the PR-ESP paper,
//! shared by `presp repro`, the repository benchmark (`perfbench/`) and
//! the integration tests, and the floorplanning cells behind
//! `presp bench floorplan`.

#![warn(unreachable_pub)]

pub mod experiments;
pub mod export;
pub mod floorplan;
mod render;
pub mod repro;
