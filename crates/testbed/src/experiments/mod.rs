//! The four experiment rigs of the paper's Section 6.4.
//!
//! | Rig | Paper artefact | Layout |
//! |---|---|---|
//! | [`overlay_single`] | Table 2 | equilateral triangle, 2 m sides, board between Tx and Rx |
//! | [`overlay_multi`] | Table 3 | Tx/Rx >30 ft apart through concrete walls, relays in the corridor |
//! | [`underlay_image`] | Table 4 | two SU transmitters, one receiver, GMSK image transfer at amplitudes 800/600/400 |
//! | [`beam_scan`] | Figure 8 | two-element beamformer, null at 120°, semicircle scan 0°–180° |

pub mod beam_scan;
pub mod overlay_multi;
pub mod overlay_single;
pub mod underlay_image;
