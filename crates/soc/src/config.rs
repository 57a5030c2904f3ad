//! SoC configurations: the tile-grid description the PR-ESP flow parses.

use crate::error::Error;
use crate::json::JsonValue;
use crate::tile::TileKind;
use presp_accel::catalog::AcceleratorKind;
use presp_fpga::resources::Resources;
use std::fmt;

/// A tile position in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Grid row.
    pub row: usize,
    /// Grid column.
    pub col: usize,
}

impl TileCoord {
    /// Creates a coordinate.
    pub fn new(row: usize, col: usize) -> TileCoord {
        TileCoord { row, col }
    }
}

impl fmt::Display for TileCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// A validated SoC configuration: a grid of tiles.
///
/// Prints as JSON (the analogue of ESP's `esp_defconfig`) via
/// [`SocConfig::to_json`]; tiles are written as variant strings such as
/// `"Aux"` or `"Accel(gemm)"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocConfig {
    name: String,
    rows: usize,
    cols: usize,
    tiles: Vec<TileKind>,
}

impl SocConfig {
    /// Builds and validates a configuration from a row-major tile list.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadConfig`] when the grid shape is wrong or the SoC
    /// lacks a CPU, memory or auxiliary tile, or has more than one AUX.
    pub fn new(
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        tiles: Vec<TileKind>,
    ) -> Result<SocConfig, Error> {
        if rows == 0 || cols == 0 || tiles.len() != rows * cols {
            return Err(Error::BadConfig {
                detail: format!("{} tiles for a {rows}x{cols} grid", tiles.len()),
            });
        }
        let count = |k: fn(&TileKind) -> bool| tiles.iter().filter(|t| k(t)).count();
        if count(|t| matches!(t, TileKind::Cpu)) == 0 {
            return Err(Error::BadConfig {
                detail: "no CPU tile".into(),
            });
        }
        if count(|t| matches!(t, TileKind::Mem)) == 0 {
            return Err(Error::BadConfig {
                detail: "no memory tile".into(),
            });
        }
        match count(|t| matches!(t, TileKind::Aux)) {
            0 => {
                return Err(Error::BadConfig {
                    detail: "no auxiliary tile (DFXC/ICAP host)".into(),
                })
            }
            1 => {}
            n => {
                return Err(Error::BadConfig {
                    detail: format!("{n} auxiliary tiles (need exactly 1)"),
                })
            }
        }
        Ok(SocConfig {
            name: name.into(),
            rows,
            cols,
            tiles,
        })
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        JsonValue::Object(vec![
            ("name".into(), JsonValue::String(self.name.clone())),
            ("rows".into(), JsonValue::Number(self.rows as f64)),
            ("cols".into(), JsonValue::Number(self.cols as f64)),
            (
                "tiles".into(),
                JsonValue::Array(
                    self.tiles
                        .iter()
                        .map(|t| JsonValue::String(tile_to_token(*t)))
                        .collect(),
                ),
            ),
        ])
        .pretty()
    }

    /// A 2×2 profiling SoC with one static accelerator tile — the paper's
    /// setup for per-accelerator LUT/latency profiling (Fig. 3).
    ///
    /// # Errors
    ///
    /// Never fails for a valid accelerator kind; the `Result` mirrors
    /// [`SocConfig::new`].
    pub fn grid_2x2_single(kind: AcceleratorKind) -> Result<SocConfig, Error> {
        SocConfig::new(
            format!("profile_{kind}"),
            2,
            2,
            vec![
                TileKind::Cpu,
                TileKind::Mem,
                TileKind::Aux,
                TileKind::Accel(kind),
            ],
        )
    }

    /// A 3×3 SoC with CPU, MEM and AUX plus `n` reconfigurable tiles (the
    /// shape of the paper's SoC_A–SoC_D and SoC_X–SoC_Z), `n ≤ 6`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadConfig`] when `n > 6`.
    pub fn grid_3x3_reconf(name: impl Into<String>, n: usize) -> Result<SocConfig, Error> {
        if n > 6 {
            return Err(Error::BadConfig {
                detail: format!("{n} reconfigurable tiles exceed a 3x3 grid"),
            });
        }
        let mut tiles = vec![TileKind::Cpu, TileKind::Mem, TileKind::Aux];
        tiles.extend(std::iter::repeat_n(TileKind::Reconfigurable, n));
        tiles.resize(9, TileKind::Empty);
        SocConfig::new(name, 3, 3, tiles)
    }

    /// A near-square SoC with CPU, MEM and AUX plus `n` reconfigurable
    /// tiles, for scale-out workloads past the 3×3 grid's 6-tile cap.
    /// The grid is sized to the smallest near-square rectangle (at
    /// least 3 columns) holding `n + 3` tiles; unused positions are
    /// [`TileKind::Empty`].
    ///
    /// # Errors
    ///
    /// Never fails for `n ≥ 1`; the `Result` mirrors [`SocConfig::new`].
    pub fn grid_reconf(name: impl Into<String>, n: usize) -> Result<SocConfig, Error> {
        let total = n + 3;
        let cols = (1..).find(|c| c * c >= total).unwrap_or(3).max(3);
        let rows = total.div_ceil(cols);
        let mut tiles = vec![TileKind::Cpu, TileKind::Mem, TileKind::Aux];
        tiles.extend(std::iter::repeat_n(TileKind::Reconfigurable, n));
        tiles.resize(rows * cols, TileKind::Empty);
        SocConfig::new(name, rows, cols, tiles)
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The tile kind at `coord`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTile`] for out-of-grid coordinates.
    #[cfg(test)]
    pub(crate) fn tile(&self, coord: TileCoord) -> Result<TileKind, Error> {
        if coord.row >= self.rows || coord.col >= self.cols {
            return Err(Error::NoSuchTile { coord });
        }
        Ok(self.tiles[coord.row * self.cols + coord.col])
    }

    /// Iterates over `(coord, kind)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (TileCoord, TileKind)> + '_ {
        self.tiles
            .iter()
            .enumerate()
            .map(|(i, &k)| (TileCoord::new(i / self.cols, i % self.cols), k))
    }

    /// Coordinates of every tile matching a predicate.
    pub(crate) fn find_tiles(&self, pred: impl Fn(TileKind) -> bool) -> Vec<TileCoord> {
        self.iter()
            .filter(|(_, k)| pred(*k))
            .map(|(c, _)| c)
            .collect()
    }

    /// The (single) CPU tile closest to the grid origin.
    pub(crate) fn cpu(&self) -> TileCoord {
        self.find_tiles(|k| matches!(k, TileKind::Cpu))[0]
    }

    /// The (single) memory tile closest to the grid origin.
    pub(crate) fn mem(&self) -> TileCoord {
        self.find_tiles(|k| matches!(k, TileKind::Mem))[0]
    }

    /// The auxiliary tile.
    pub(crate) fn aux(&self) -> TileCoord {
        self.find_tiles(|k| matches!(k, TileKind::Aux))[0]
    }

    /// All reconfigurable tiles, row-major.
    pub fn reconfigurable_tiles(&self) -> Vec<TileCoord> {
        self.find_tiles(|k| matches!(k, TileKind::Reconfigurable))
    }

    /// Total static-part resources of the SoC (every static tile).
    pub fn static_resources(&self) -> Resources {
        self.iter()
            .filter(|(_, k)| k.is_static())
            .map(|(_, k)| k.static_resources())
            .sum()
    }
}

/// The JSON token for a tile kind: the variant name (`"Aux"`), with
/// accelerator tiles written as `"Accel(<kind>)"`.
fn tile_to_token(kind: TileKind) -> String {
    match kind {
        TileKind::Cpu => "Cpu".into(),
        TileKind::Mem => "Mem".into(),
        TileKind::Aux => "Aux".into(),
        TileKind::Slm => "Slm".into(),
        TileKind::Accel(accel) => format!("Accel({accel})"),
        TileKind::Reconfigurable => "Reconfigurable".into(),
        TileKind::Empty => "Empty".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_3x3_has_expected_tiles() {
        let cfg = SocConfig::grid_3x3_reconf("soc_y", 3).unwrap();
        assert_eq!(cfg.reconfigurable_tiles().len(), 3);
        assert_eq!(cfg.tile(cfg.cpu()).unwrap(), TileKind::Cpu);
        assert_eq!(cfg.tile(cfg.aux()).unwrap(), TileKind::Aux);
        assert_eq!(cfg.iter().count(), 9);
    }

    #[test]
    fn static_resources_match_table2_for_minimal_soc() {
        // Reconfigurable tiles are excluded from the static part (their
        // wrapper contents are what gets reconfigured), so a CPU+MEM+AUX
        // SoC reports exactly Table II's 82,267 static LUTs regardless of
        // how many reconfigurable tiles it carries.
        let cfg = SocConfig::grid_3x3_reconf("soc", 4).unwrap();
        assert_eq!(cfg.static_resources().lut, 82_267);
    }

    #[test]
    fn validation_catches_missing_tiles() {
        let no_cpu = SocConfig::new(
            "x",
            1,
            3,
            vec![TileKind::Mem, TileKind::Aux, TileKind::Empty],
        );
        assert!(matches!(no_cpu, Err(Error::BadConfig { .. })));
        let no_aux = SocConfig::new(
            "x",
            1,
            3,
            vec![TileKind::Cpu, TileKind::Mem, TileKind::Empty],
        );
        assert!(matches!(no_aux, Err(Error::BadConfig { .. })));
        let two_aux = SocConfig::new(
            "x",
            2,
            2,
            vec![TileKind::Cpu, TileKind::Mem, TileKind::Aux, TileKind::Aux],
        );
        assert!(matches!(two_aux, Err(Error::BadConfig { .. })));
    }

    #[test]
    fn validation_catches_bad_shape() {
        let wrong = SocConfig::new("x", 2, 2, vec![TileKind::Cpu]);
        assert!(matches!(wrong, Err(Error::BadConfig { .. })));
        let zero = SocConfig::new("x", 0, 2, vec![]);
        assert!(matches!(zero, Err(Error::BadConfig { .. })));
    }

    #[test]
    fn too_many_reconf_tiles_rejected() {
        assert!(SocConfig::grid_3x3_reconf("x", 7).is_err());
        assert!(SocConfig::grid_3x3_reconf("x", 6).is_ok());
    }

    #[test]
    fn grid_reconf_scales_past_the_3x3_cap() {
        // 64 reconfigurable tiles + CPU/MEM/AUX = 67 positions → 8×9.
        let cfg = SocConfig::grid_reconf("soc_big", 64).unwrap();
        assert_eq!(cfg.reconfigurable_tiles().len(), 64);
        assert_eq!((cfg.rows(), cfg.cols()), (8, 9));
        assert_eq!(cfg.tile(cfg.cpu()).unwrap(), TileKind::Cpu);
        assert_eq!(cfg.tile(cfg.aux()).unwrap(), TileKind::Aux);
        // Small counts still validate (near-square, ≥3 columns).
        let small = SocConfig::grid_reconf("soc_small", 1).unwrap();
        assert_eq!(small.reconfigurable_tiles().len(), 1);
        assert_eq!((small.rows(), small.cols()), (2, 3));
    }

    #[test]
    fn json_writes_one_token_per_tile() {
        let cfg = SocConfig::grid_2x2_single(AcceleratorKind::Gemm).unwrap();
        let json = cfg.to_json();
        for token in ["\"Cpu\"", "\"Mem\"", "\"Aux\"", "\"Accel(gemm)\""] {
            assert!(json.contains(token), "{token} in {json}");
        }
    }

    #[test]
    fn out_of_grid_lookup_fails() {
        let cfg = SocConfig::grid_2x2_single(AcceleratorKind::Mac).unwrap();
        assert!(cfg.tile(TileCoord::new(5, 0)).is_err());
    }
}
