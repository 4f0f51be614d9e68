//! Linear layers bound to named parameters, plus the bundled ("GEMM
//! batched") projection helper.

use sf_autograd::{Graph, ParamStore, Result, Var};
use sf_tensor::Tensor;

/// FNV-1a over `name`: a per-name seed, stable across runs and platforms,
/// for deterministic parameter initialization and dropout masks.
pub(crate) fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A named linear layer `y = x W^T (+ b)`.
///
/// Parameters live in the [`ParamStore`] under `"{name}.weight"` /
/// `"{name}.bias"` and are LeCun-normal initialized on first use.
#[derive(Debug, Clone)]
pub struct Linear {
    name: String,
    in_dim: usize,
    out_dim: usize,
    bias: bool,
}

impl Linear {
    /// A linear layer with bias.
    pub fn new(name: impl Into<String>, in_dim: usize, out_dim: usize) -> Self {
        Linear {
            name: name.into(),
            in_dim,
            out_dim,
            bias: true,
        }
    }

    /// A linear layer without bias (AlphaFold's attention projections).
    pub fn no_bias(name: impl Into<String>, in_dim: usize, out_dim: usize) -> Self {
        Linear {
            name: name.into(),
            in_dim,
            out_dim,
            bias: false,
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter name prefix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Binds this layer's weight (and bias) into the tape.
    fn bind(&self, g: &mut Graph, store: &mut ParamStore) -> (Var, Option<Var>) {
        let wname = format!("{}.weight", self.name);
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let w = g.use_param_or_init(store, &wname, || {
            Tensor::lecun_normal(&[out_dim, in_dim], in_dim, name_seed(&wname))
        });
        let b = if self.bias {
            let bname = format!("{}.bias", self.name);
            Some(g.use_param_or_init(store, &bname, || Tensor::zeros(&[out_dim])))
        } else {
            None
        };
        (w, b)
    }

    /// Applies the layer to `x` of shape `[..., in_dim]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `x`'s last dimension is not `in_dim`.
    pub fn apply(&self, g: &mut Graph, store: &mut ParamStore, x: Var) -> Result<Var> {
        let (w, b) = self.bind(g, store);
        let wt = g.permute(w, &[1, 0])?;
        let y = g.matmul(x, wt)?;
        match b {
            Some(b) => g.add(y, b),
            None => Ok(y),
        }
    }
}

/// Applies several independent projections of the *same* input as one
/// bundled operation — the model-side counterpart of the paper's "GEMM
/// Batching" (§3.3.1): the four linear layers before MHA have no mutual
/// dependency, so they are fused into one wide GEMM and split.
///
/// Numerically identical to applying each [`Linear`] separately (tested).
///
/// # Errors
///
/// Returns an error on dimension mismatch or an empty layer list.
pub fn batched_apply(
    g: &mut Graph,
    store: &mut ParamStore,
    layers: &[&Linear],
    x: Var,
) -> Result<Vec<Var>> {
    // Bind all weights, concat along the output dim, single GEMM, split.
    let mut ws = Vec::with_capacity(layers.len());
    let mut bs = Vec::with_capacity(layers.len());
    for l in layers {
        let (w, b) = l.bind(g, store);
        ws.push(w);
        bs.push(b);
    }
    let stacked = g.concat(&ws, 0)?;
    let wt = g.permute(stacked, &[1, 0])?;
    let big = g.matmul(x, wt)?;
    let rank = g.value(big).rank();
    let mut outs = Vec::with_capacity(layers.len());
    let mut col = 0usize;
    for (l, b) in layers.iter().zip(bs) {
        let piece = g.slice_axis(big, rank - 1, col, col + l.out_dim)?;
        let out = match b {
            Some(b) => g.add(piece, b)?,
            None => piece,
        };
        outs.push(out);
        col += l.out_dim;
    }
    Ok(outs)
}

/// Binds a named LayerNorm (`"{name}.gamma"` / `"{name}.beta"`) and applies
/// it over the last axis of `x`.
///
/// # Errors
///
/// Returns an error if `dim` mismatches `x`'s last axis.
pub fn layer_norm(
    g: &mut Graph,
    store: &mut ParamStore,
    name: &str,
    dim: usize,
    x: Var,
) -> Result<Var> {
    let gamma = g.use_param_or_init(store, &format!("{name}.gamma"), || Tensor::ones(&[dim]));
    let beta = g.use_param_or_init(store, &format!("{name}.beta"), || Tensor::zeros(&[dim]));
    g.layer_norm(x, gamma, beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_determinism() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let l = Linear::new("test.proj", 6, 4);
        let x = g.constant(Tensor::randn(&[3, 6], 1));
        let y = l.apply(&mut g, &mut store, x).unwrap();
        assert_eq!(g.value(y).dims(), &[3, 4]);

        // Same store, fresh tape: identical output (weights persisted).
        let mut g2 = Graph::new();
        let x2 = g2.constant(Tensor::randn(&[3, 6], 1));
        let y2 = l.apply(&mut g2, &mut store, x2).unwrap();
        assert_eq!(g.value(y), g2.value(y2));
    }

    #[test]
    fn different_names_different_weights() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[1, 4]));
        let a = Linear::no_bias("a", 4, 4).apply(&mut g, &mut store, x).unwrap();
        let b = Linear::no_bias("b", 4, 4).apply(&mut g, &mut store, x).unwrap();
        assert_ne!(g.value(a), g.value(b));
    }

    #[test]
    fn batched_apply_equals_individual() {
        let mut store = ParamStore::new();
        let l1 = Linear::no_bias("q", 8, 6);
        let l2 = Linear::no_bias("k", 8, 6);
        let l3 = Linear::new("v", 8, 10);

        let x0 = Tensor::randn(&[2, 5, 8], 2);
        let mut g = Graph::new();
        let x = g.constant(x0.clone());
        let bundled = batched_apply(&mut g, &mut store, &[&l1, &l2, &l3], x).unwrap();

        let mut g2 = Graph::new();
        let x2 = g2.constant(x0);
        let y1 = l1.apply(&mut g2, &mut store, x2).unwrap();
        let y2 = l2.apply(&mut g2, &mut store, x2).unwrap();
        let y3 = l3.apply(&mut g2, &mut store, x2).unwrap();

        assert!(g.value(bundled[0]).allclose(g2.value(y1), 1e-5));
        assert!(g.value(bundled[1]).allclose(g2.value(y2), 1e-5));
        assert!(g.value(bundled[2]).allclose(g2.value(y3), 1e-5));
    }

    #[test]
    fn batched_apply_gradients_flow() {
        let mut store = ParamStore::new();
        let l1 = Linear::no_bias("g1", 4, 3);
        let l2 = Linear::no_bias("g2", 4, 3);
        let mut g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 4], 3));
        let outs = batched_apply(&mut g, &mut store, &[&l1, &l2], x).unwrap();
        let s = g.add(outs[0], outs[1]).unwrap();
        let loss = g.sum_all(s).unwrap();
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        assert!(grads.contains_key("g1.weight"));
        assert!(grads.contains_key("g2.weight"));
        assert!(grads["g1.weight"].norm() > 0.0);
    }

    #[test]
    fn layer_norm_binds_params() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.constant(Tensor::randn(&[4, 8], 5));
        let y = layer_norm(&mut g, &mut store, "ln", 8, x).unwrap();
        assert_eq!(g.value(y).dims(), &[4, 8]);
        assert!(store.get("ln.gamma").is_some());
        assert!(store.get("ln.beta").is_some());
    }

    #[test]
    fn lecun_init_scale() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let l = Linear::no_bias("scale.test", 256, 64);
        let x = g.constant(Tensor::zeros(&[1, 256]));
        let _ = l.apply(&mut g, &mut store, x).unwrap();
        let w = store.get("scale.test.weight").unwrap();
        let std = w.square().mean_all().sqrt();
        let expect = 1.0 / (256f32).sqrt();
        assert!((std - expect).abs() < 0.2 * expect, "std {std} vs {expect}");
    }
}
