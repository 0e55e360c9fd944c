//! Obstacles: walls and boards with penetration loss.
//!
//! The paper's testbed degrades links with physical obstructions — "a thick
//! board is put between the transmitter and receiver to function as an
//! obstacle to reduce the link quality" (single-relay experiment) and
//! "multiple concrete walls" (multi-relay experiment, Section 6.4). The
//! simulator models each obstruction as a segment with a penetration loss
//! in dB; a link's excess loss is the sum over obstructions its
//! line-of-sight ray crosses.

use crate::geometry::{Point, Segment};
use serde::{Deserialize, Serialize};

/// A wall/board: a segment with a penetration loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Obstacle {
    /// The obstruction's footprint in the plane.
    pub segment: Segment,
    /// Penetration loss in dB each time a ray crosses the segment.
    pub loss_db: f64,
}

impl Obstacle {
    /// Builds an obstacle from endpoints and loss.
    pub fn new(a: Point, b: Point, loss_db: f64) -> Self {
        assert!(loss_db >= 0.0, "penetration loss cannot be negative");
        Self {
            segment: Segment::new(a, b),
            loss_db,
        }
    }
}

/// A set of obstacles forming an indoor environment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    obstacles: Vec<Obstacle>,
}

impl Environment {
    /// An empty (free-space) environment.
    pub fn open() -> Self {
        Self::default()
    }

    /// Builds from a list of obstacles.
    pub fn with_obstacles(obstacles: Vec<Obstacle>) -> Self {
        Self { obstacles }
    }

    /// Adds one obstacle.
    pub fn add(&mut self, o: Obstacle) {
        self.obstacles.push(o);
    }

    /// All obstacles.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Number of obstacles crossed by the ray `tx → rx`.
    pub fn crossings(&self, tx: Point, rx: Point) -> usize {
        let ray = Segment::new(tx, rx);
        self.obstacles
            .iter()
            .filter(|o| o.segment.intersects(&ray))
            .count()
    }

    /// Total excess loss in dB on the ray `tx → rx`.
    pub fn excess_loss_db(&self, tx: Point, rx: Point) -> f64 {
        let ray = Segment::new(tx, rx);
        self.obstacles
            .iter()
            .filter(|o| o.segment.intersects(&ray))
            .map(|o| o.loss_db)
            .sum()
    }
}

/// Builds the paper's single-relay layout: transmitter, relay and receiver
/// on an equilateral triangle of side `side` metres, with a board of
/// `board_loss_db` between transmitter and receiver (Section 6.4).
///
/// Returns `(tx, relay, rx, environment)`.
pub fn single_relay_room(side: f64, board_loss_db: f64) -> (Point, Point, Point, Environment) {
    let [tx, rx, relay] = crate::geometry::equilateral_triangle(Point::origin(), side);
    // board: a short wall perpendicular to and centred on the tx-rx base
    let mid = tx.midpoint(rx);
    let half = side * 0.25;
    let board = Obstacle::new(
        Point::new(mid.x, mid.y - half),
        Point::new(mid.x, mid.y + half),
        board_loss_db,
    );
    (tx, relay, rx, Environment::with_obstacles(vec![board]))
}

/// Builds the paper's multi-relay layout: transmitter and receiver
/// `distance` metres apart separated by `n_walls` concrete walls of
/// `wall_loss_db` each, with `n_relays` relays uniformly spaced in the
/// corridor (offset `corridor_offset` metres to the side so relays bypass
/// the walls, as the physical corridor did).
///
/// Returns `(tx, relays, rx, environment)`.
pub fn multi_relay_corridor(
    distance: f64,
    n_relays: usize,
    n_walls: usize,
    wall_loss_db: f64,
    corridor_offset: f64,
) -> (Point, Vec<Point>, Point, Environment) {
    assert!(n_relays >= 1);
    let tx = Point::origin();
    let rx = Point::new(distance, 0.0);
    let relays: Vec<Point> = (1..=n_relays)
        .map(|i| {
            let t = i as f64 / (n_relays + 1) as f64;
            Point::new(distance * t, corridor_offset)
        })
        .collect();
    // walls span only the office side (y < corridor_offset/2), so the
    // corridor path over the relays is unobstructed
    let mut env = Environment::open();
    for i in 1..=n_walls {
        let x = distance * i as f64 / (n_walls + 1) as f64;
        env.add(Obstacle::new(
            Point::new(x, -4.0 * corridor_offset),
            Point::new(x, corridor_offset / 2.0),
            wall_loss_db,
        ));
    }
    (tx, relays, rx, env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_environment_is_lossless() {
        let env = Environment::open();
        assert_eq!(
            env.excess_loss_db(Point::origin(), Point::new(100.0, 0.0)),
            0.0
        );
    }

    #[test]
    fn wall_blocks_crossing_ray_only() {
        let mut env = Environment::open();
        env.add(Obstacle::new(
            Point::new(5.0, -1.0),
            Point::new(5.0, 1.0),
            10.0,
        ));
        // crossing ray
        assert_eq!(
            env.excess_loss_db(Point::new(0.0, 0.0), Point::new(10.0, 0.0)),
            10.0
        );
        // ray passing above the wall
        assert_eq!(
            env.excess_loss_db(Point::new(0.0, 2.0), Point::new(10.0, 2.0)),
            0.0
        );
    }

    #[test]
    fn losses_accumulate_across_walls() {
        let mut env = Environment::open();
        for i in 1..=3 {
            env.add(Obstacle::new(
                Point::new(i as f64 * 2.0, -1.0),
                Point::new(i as f64 * 2.0, 1.0),
                7.0,
            ));
        }
        assert_eq!(
            env.crossings(Point::new(0.0, 0.0), Point::new(10.0, 0.0)),
            3
        );
        assert!(
            (env.excess_loss_db(Point::new(0.0, 0.0), Point::new(10.0, 0.0)) - 21.0).abs() < 1e-12
        );
    }

    #[test]
    fn single_relay_room_blocks_direct_but_not_relay() {
        let (tx, relay, rx, env) = single_relay_room(2.0, 15.0);
        assert!((tx.distance(rx) - 2.0).abs() < 1e-12);
        assert!((tx.distance(relay) - 2.0).abs() < 1e-12);
        assert!((relay.distance(rx) - 2.0).abs() < 1e-12);
        // direct path hits the board; the two relay legs do not
        assert!(env.excess_loss_db(tx, rx) > 0.0);
        assert_eq!(env.excess_loss_db(tx, relay), 0.0);
        assert_eq!(env.excess_loss_db(relay, rx), 0.0);
    }

    #[test]
    fn corridor_layout_geometry() {
        let (tx, relays, rx, env) = multi_relay_corridor(10.0, 3, 2, 12.0, 2.0);
        assert_eq!(relays.len(), 3);
        // relays uniformly spaced: x = 2.5, 5.0, 7.5
        assert!((relays[0].x - 2.5).abs() < 1e-12);
        assert!((relays[1].x - 5.0).abs() < 1e-12);
        assert!((relays[2].x - 7.5).abs() < 1e-12);
        // direct path crosses both walls
        assert_eq!(env.crossings(tx, rx), 2);
        // corridor path tx -> relay1 crosses at most one wall
        assert!(env.crossings(tx, relays[0]) <= 1);
        // relay-to-relay hops along the corridor are clear
        assert_eq!(env.crossings(relays[0], relays[1]), 0);
        assert_eq!(env.crossings(relays[1], relays[2]), 0);
    }

    #[test]
    fn corridor_relay_path_attenuation_below_direct() {
        let (tx, relays, rx, env) = multi_relay_corridor(10.0, 1, 3, 12.0, 2.0);
        let direct = env.excess_loss_db(tx, rx);
        let via = env.excess_loss_db(tx, relays[0]) + env.excess_loss_db(relays[0], rx);
        assert!(via < direct, "via {via} dB vs direct {direct} dB");
    }
}
