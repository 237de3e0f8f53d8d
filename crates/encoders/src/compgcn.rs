//! CompGCN (Vashishth et al., 2019): composition-based multi-relational
//! graph convolution.
//!
//! In the paper CompGCN plays two roles: it produces the *pretrained
//! structured embedding* `h_s` that CamE consumes as one of its three
//! modalities (§III), and it appears as a unimodal baseline in Table III.
//! Both uses share this implementation.

use std::sync::Arc;

use came_kg::{KgDataset, OneToNModel, Split, TrainConfig};
pub use came_tensor::Composition;
use came_tensor::{EdgeIndex, EmbeddingTable, Graph, ParamStore, Prng, Shape, Tensor, Var};

struct GcnLayer {
    w_dir: came_tensor::ParamId,
    w_loop: came_tensor::ParamId,
    w_rel: came_tensor::ParamId,
}

/// The CompGCN model: learned entity/relation tables, one or more message
/// passing layers over the (inverse-augmented) train graph, DistMult-style
/// 1-N scoring on the propagated representations.
pub struct CompGcn {
    /// Entity input embeddings `[N, d]`.
    pub ent: EmbeddingTable,
    /// Relation input embeddings `[2R, d]`.
    pub rel: EmbeddingTable,
    layers: Vec<GcnLayer>,
    bias: came_tensor::ParamId,
    /// The augmented train split's edges, indexed once for message passing.
    edges: Arc<EdgeIndex>,
    /// `1 / (1 + indegree)` normaliser per entity.
    inv_deg: Arc<[f32]>,
    composition: Composition,
}

impl CompGcn {
    /// Build over `dataset`'s augmented train split.
    pub fn new(
        store: &mut ParamStore,
        dataset: &KgDataset,
        dim: usize,
        n_layers: usize,
        composition: Composition,
        rng: &mut Prng,
    ) -> Self {
        let n = dataset.num_entities();
        let nr = dataset.num_relations_aug();
        let ent = EmbeddingTable::new(store, "compgcn.ent", n, dim, rng);
        let rel = EmbeddingTable::new(store, "compgcn.rel", nr, dim, rng);
        let layers = (0..n_layers)
            .map(|l| GcnLayer {
                w_dir: store.add_xavier(format!("compgcn.l{l}.w_dir"), Shape::d2(dim, dim), rng),
                w_loop: store.add_xavier(format!("compgcn.l{l}.w_loop"), Shape::d2(dim, dim), rng),
                w_rel: store.add_xavier(format!("compgcn.l{l}.w_rel"), Shape::d2(dim, dim), rng),
            })
            .collect();
        let bias = store.add_zeros("compgcn.bias", Shape::d1(n));
        let aug = dataset.augmented(Split::Train);
        let src: Vec<u32> = aug.iter().map(|t| t.h.0).collect();
        let rels_of_edges: Vec<u32> = aug.iter().map(|t| t.r.0).collect();
        let dst: Vec<u32> = aug.iter().map(|t| t.t.0).collect();
        drop(aug);
        let edges = EdgeIndex::new(&src, &rels_of_edges, &dst, n, nr);
        // +1 for the self loop
        let inv_deg = (0..n)
            .map(|v| 1.0 / (1.0 + edges.in_degree(v) as f32))
            .collect();
        CompGcn {
            ent,
            rel,
            layers,
            bias,
            edges: Arc::new(edges),
            inv_deg,
            composition,
        }
    }

    /// Run the message-passing stack; returns `(entity_repr [N,d],
    /// relation_repr [2R,d])` as graph nodes.
    pub fn propagate(&self, g: &Graph, store: &ParamStore) -> (Var, Var) {
        let mut x = self.ent.full(g, store);
        let mut z = self.rel.full(g, store);
        for layer in &self.layers {
            let agg = g.message_pass(x, z, &self.edges, &self.inv_deg, self.composition);
            let w_dir = g.param(store, layer.w_dir);
            let w_loop = g.param(store, layer.w_loop);
            let transformed = g.add(g.matmul(agg, w_dir), g.matmul(x, w_loop));
            x = g.tanh(transformed);
            z = g.matmul(z, g.param(store, layer.w_rel));
        }
        (x, z)
    }

    /// Propagated entity representations as a plain tensor `[N, d]` —
    /// the frozen structural features handed to multimodal models.
    pub fn structural_features(&self, store: &ParamStore) -> Tensor {
        let g = Graph::inference();
        let (x, _) = self.propagate(&g, store);
        g.value(x)
    }
}

impl OneToNModel for CompGcn {
    fn forward(&self, g: &Graph, store: &ParamStore, heads: &[u32], rels: &[u32]) -> Var {
        let (x, z) = self.propagate(g, store);
        let h = g.gather(x, heads);
        let r = g.gather(z, rels);
        let hr = g.mul(h, r);
        let scores = g.matmul(hr, g.transpose(x, 0, 1));
        g.add(scores, g.param(store, self.bias))
    }
}

/// Train a CompGCN on `dataset` and return its frozen structural features
/// `[N, dim]` — the paper's "structural embedding learned by CompGCN".
/// With `epochs == 0` the untrained propagation is returned directly,
/// without setting up a trainer.
pub fn pretrain_structural(dataset: &KgDataset, dim: usize, epochs: usize, seed: u64) -> Tensor {
    let mut rng = Prng::new(seed);
    let mut store = ParamStore::new();
    let model = CompGcn::new(&mut store, dataset, dim, 1, Composition::Mult, &mut rng);
    if epochs == 0 {
        return model.structural_features(&store);
    }
    let cfg = TrainConfig {
        epochs,
        batch_size: 512,
        lr: 2e-3,
        seed,
        ..Default::default()
    };
    came_kg::train_one_to_n(&model, &mut store, dataset, &cfg, |_, _, _| {});
    model.structural_features(&store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use came_biodata::presets;
    use came_kg::{evaluate, EvalConfig, OneToNScorer};

    #[test]
    fn propagation_shapes() {
        let bkg = presets::tiny(0);
        let mut rng = Prng::new(1);
        let mut store = ParamStore::new();
        let m = CompGcn::new(&mut store, &bkg.dataset, 16, 2, Composition::Sub, &mut rng);
        let g = Graph::inference();
        let (x, z) = m.propagate(&g, &store);
        assert_eq!(g.shape(x), Shape::d2(bkg.dataset.num_entities(), 16));
        assert_eq!(g.shape(z), Shape::d2(bkg.dataset.num_relations_aug(), 16));
    }

    #[test]
    fn training_improves_over_untrained() {
        let bkg = presets::tiny(3);
        let d = &bkg.dataset;
        let mut rng = Prng::new(2);
        let mut store = ParamStore::new();
        let model = CompGcn::new(&mut store, d, 24, 1, Composition::Mult, &mut rng);
        let filter = d.filter_index();
        let cfg_eval = EvalConfig::default();
        let before = evaluate(
            &OneToNScorer::new(&model, &store),
            d,
            Split::Valid,
            &filter,
            &cfg_eval,
        );
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 128,
            lr: 3e-3,
            ..Default::default()
        };
        came_kg::train_one_to_n(&model, &mut store, d, &cfg, |_, _, _| {});
        let after = evaluate(
            &OneToNScorer::new(&model, &store),
            d,
            Split::Valid,
            &filter,
            &cfg_eval,
        );
        assert!(
            after.mrr() > before.mrr() + 0.03,
            "no learning: {} -> {}",
            before.mrr(),
            after.mrr()
        );
    }

    #[test]
    fn zero_epochs_return_the_untrained_propagation() {
        let bkg = presets::tiny(5);
        let d = &bkg.dataset;
        let seed = 11;
        let feats = pretrain_structural(d, 32, 0, seed);
        let mut rng = Prng::new(seed);
        let mut store = ParamStore::new();
        let model = CompGcn::new(&mut store, d, 32, 1, Composition::Mult, &mut rng);
        let want = model.structural_features(&store);
        assert_eq!(feats.shape(), want.shape());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&feats), bits(&want));
    }

    #[test]
    fn structural_features_are_finite_and_sized() {
        let bkg = presets::tiny(4);
        let feats = pretrain_structural(&bkg.dataset, 16, 2, 7);
        assert_eq!(feats.shape(), Shape::d2(bkg.dataset.num_entities(), 16));
        assert!(!feats.has_non_finite());
        // propagation must differentiate entities
        let d0 = &feats.data()[..16];
        let d1 = &feats.data()[16..32];
        assert_ne!(d0, d1);
    }
}
