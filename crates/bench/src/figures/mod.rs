//! One module per table/figure of the paper's evaluation (DESIGN.md §4):
//! Table III, Figs. 7–17 and the ablations — nothing else.

pub mod ablation;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11_12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod table3;
