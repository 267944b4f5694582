//! Reinforcement-learning primitives shared by the learned components:
//! tabular Q-learning (RLR-tree, DQ), an experience replay buffer (Neo,
//! RTOS), epsilon-greedy exploration, and a generic UCT Monte-Carlo tree
//! search (PLATON's partition-policy learner).

use std::collections::HashMap;

use rand::Rng;

/// A tabular Q-function over hashable discrete states.
#[derive(Clone, Debug, Default)]
pub struct QTable {
    q: HashMap<(u64, usize), f32>,
    /// Learning rate.
    pub alpha: f32,
    /// Discount factor.
    pub gamma: f32,
}

impl QTable {
    /// Creates a Q-table with the given learning rate and discount.
    pub fn new(alpha: f32, gamma: f32) -> Self {
        Self { q: HashMap::new(), alpha, gamma }
    }

    /// Current Q-value (0 for unseen pairs).
    pub fn get(&self, state: u64, action: usize) -> f32 {
        self.q.get(&(state, action)).copied().unwrap_or(0.0)
    }

    /// True if the pair has ever been updated.
    pub fn contains(&self, state: u64, action: usize) -> bool {
        self.q.contains_key(&(state, action))
    }

    /// Greedy action among `actions`; `None` if empty. Ties prefer the
    /// earliest action, so callers can order actions by a domain heuristic
    /// and fall back to it for unseen states.
    pub fn best_action(&self, state: u64, actions: &[usize]) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for &a in actions {
            let q = self.get(state, a);
            if best.map_or(true, |(_, bq)| q > bq) {
                best = Some((a, q));
            }
        }
        best.map(|(a, _)| a)
    }

    /// Epsilon-greedy action selection.
    pub fn select<R: Rng + ?Sized>(
        &self,
        state: u64,
        actions: &[usize],
        epsilon: f32,
        rng: &mut R,
    ) -> Option<usize> {
        if actions.is_empty() {
            return None;
        }
        if rng.gen::<f32>() < epsilon {
            Some(actions[rng.gen_range(0..actions.len())])
        } else {
            self.best_action(state, actions)
        }
    }

    /// One-step Q-learning update; `next_actions` empty means terminal.
    pub fn update(
        &mut self,
        state: u64,
        action: usize,
        reward: f32,
        next_state: u64,
        next_actions: &[usize],
    ) {
        let max_next = next_actions
            .iter()
            .map(|&a| self.get(next_state, a))
            .fold(f32::NEG_INFINITY, f32::max);
        let target =
            reward + if next_actions.is_empty() { 0.0 } else { self.gamma * max_next };
        let q = self.q.entry((state, action)).or_insert(0.0);
        *q += self.alpha * (target - *q);
    }

    /// Number of (state, action) pairs learned.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if nothing was learned yet.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

/// A bounded FIFO experience replay buffer with uniform sampling.
#[derive(Clone, Debug)]
pub struct ReplayBuffer<T> {
    items: Vec<T>,
    capacity: usize,
    next: usize,
}

impl<T: Clone> ReplayBuffer<T> {
    /// Creates a buffer holding at most `capacity` experiences.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        Self { items: Vec::with_capacity(capacity), capacity, next: 0 }
    }

    /// Adds an experience, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            self.items[self.next] = item;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Samples `n` experiences uniformly with replacement.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<T> {
        assert!(!self.items.is_empty(), "cannot sample from empty buffer");
        (0..n).map(|_| self.items[rng.gen_range(0..self.items.len())].clone()).collect()
    }

    /// Current number of stored experiences.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no experience is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the stored experiences.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

/// A problem that UCT Monte-Carlo tree search can optimize.
///
/// States must be cheap to clone; actions are indices into the state's legal
/// action list. Rewards are terminal-only (the search maximizes the expected
/// terminal reward), which matches PLATON's packing objective.
pub trait MctsProblem {
    /// Search state.
    type State: Clone;

    /// Legal actions in `state`; empty means terminal.
    fn actions(&self, state: &Self::State) -> Vec<usize>;

    /// Applies action `a` to produce the successor state.
    fn apply(&self, state: &Self::State, action: usize) -> Self::State;

    /// Terminal reward of a finished state (higher is better).
    fn reward(&self, state: &Self::State) -> f64;

    /// Default rollout policy: uniformly random. Problems may override with
    /// a domain heuristic.
    fn rollout<R: Rng + ?Sized>(&self, state: &Self::State, rng: &mut R) -> f64 {
        let mut s = state.clone();
        loop {
            let actions = self.actions(&s);
            if actions.is_empty() {
                return self.reward(&s);
            }
            let a = actions[rng.gen_range(0..actions.len())];
            s = self.apply(&s, a);
        }
    }
}

struct MctsNode<S> {
    state: S,
    visits: u64,
    total: f64,
    /// `(action, child node index)` in expansion order. Ties in UCT score
    /// and in the final visit count go to the child expanded first, so a
    /// seeded search is a pure function of its seed.
    children: Vec<(usize, usize)>,
    untried: Vec<usize>,
}

/// UCT Monte-Carlo tree search with a fixed simulation budget.
pub struct Mcts {
    /// Exploration constant (√2 is the classical choice).
    pub exploration: f64,
    /// Number of simulations per [`Mcts::search`] call.
    pub simulations: usize,
}

impl Default for Mcts {
    fn default() -> Self {
        Self { exploration: std::f64::consts::SQRT_2, simulations: 200 }
    }
}

impl Mcts {
    /// Creates a search with a simulation budget.
    pub fn new(simulations: usize) -> Self {
        Self { simulations, ..Default::default() }
    }

    /// Returns the best action from `root_state`, or `None` if terminal.
    pub fn search<P: MctsProblem, R: Rng + ?Sized>(
        &self,
        problem: &P,
        root_state: &P::State,
        rng: &mut R,
    ) -> Option<usize> {
        let root_actions = problem.actions(root_state);
        if root_actions.is_empty() {
            return None;
        }
        let mut arena: Vec<MctsNode<P::State>> = vec![MctsNode {
            state: root_state.clone(),
            visits: 0,
            total: 0.0,
            children: Vec::new(),
            untried: root_actions,
        }];
        for _ in 0..self.simulations {
            // Selection.
            let mut path = vec![0usize];
            let mut at = 0usize;
            loop {
                if !arena[at].untried.is_empty() {
                    break;
                }
                if arena[at].children.is_empty() {
                    break; // terminal
                }
                let parent_visits = arena[at].visits.max(1) as f64;
                let mut best = (f64::NEG_INFINITY, arena[at].children[0].1);
                for &(_, child) in &arena[at].children {
                    let score = self.uct(&arena[child], parent_visits);
                    if score > best.0 {
                        best = (score, child);
                    }
                }
                at = best.1;
                path.push(at);
            }
            // Expansion.
            if !arena[at].untried.is_empty() {
                let pick = rng.gen_range(0..arena[at].untried.len());
                let action = arena[at].untried.swap_remove(pick);
                let next_state = problem.apply(&arena[at].state, action);
                let untried = problem.actions(&next_state);
                let idx = arena.len();
                arena.push(MctsNode {
                    state: next_state,
                    visits: 0,
                    total: 0.0,
                    children: Vec::new(),
                    untried,
                });
                arena[at].children.push((action, idx));
                at = idx;
                path.push(at);
            }
            // Rollout.
            let value = problem.rollout(&arena[at].state, rng);
            // Backpropagation.
            for &n in &path {
                arena[n].visits += 1;
                arena[n].total += value;
            }
        }
        // Most-visited root action (robust child).
        let mut best: Option<(u64, usize)> = None;
        for &(action, child) in &arena[0].children {
            if best.map_or(true, |(visits, _)| arena[child].visits > visits) {
                best = Some((arena[child].visits, action));
            }
        }
        best.map(|(_, action)| action)
    }

    fn uct<S>(&self, node: &MctsNode<S>, parent_visits: f64) -> f64 {
        if node.visits == 0 {
            return f64::INFINITY;
        }
        let mean = node.total / node.visits as f64;
        mean + self.exploration * (parent_visits.ln() / node.visits as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn qtable_learns_two_state_chain() {
        // State 0 --a1--> state 1 (reward 1, terminal); a0 gives reward 0.
        let mut q = QTable::new(0.5, 0.9);
        for _ in 0..50 {
            q.update(0, 1, 1.0, 1, &[]);
            q.update(0, 0, 0.0, 1, &[]);
        }
        assert_eq!(q.best_action(0, &[0, 1]), Some(1));
        assert!(q.get(0, 1) > 0.9);
    }

    #[test]
    fn qtable_propagates_delayed_reward() {
        // Chain: s0 -a-> s1 -a-> s2 (terminal, reward 1 only at the end).
        let mut q = QTable::new(0.5, 0.9);
        for _ in 0..100 {
            q.update(0, 0, 0.0, 1, &[0]);
            q.update(1, 0, 1.0, 2, &[]);
        }
        assert!(q.get(0, 0) > 0.5, "discounted value should flow back");
        assert!(q.get(0, 0) < q.get(1, 0), "earlier state is discounted");
    }

    #[test]
    fn epsilon_zero_is_greedy() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut q = QTable::new(0.5, 0.9);
        q.update(0, 3, 10.0, 1, &[]);
        for _ in 0..20 {
            assert_eq!(q.select(0, &[0, 1, 2, 3], 0.0, &mut rng), Some(3));
        }
    }

    #[test]
    fn replay_buffer_evicts_fifo() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(i);
        }
        assert_eq!(buf.len(), 3);
        let contents: Vec<i32> = buf.iter().copied().collect();
        assert!(contents.contains(&4));
        assert!(!contents.contains(&0));
        assert!(!contents.contains(&1));
    }

    /// A bandit-like MCTS problem: pick 3 digits, reward = their sum / 27.
    struct DigitSum;
    impl MctsProblem for DigitSum {
        type State = Vec<usize>;
        fn actions(&self, s: &Vec<usize>) -> Vec<usize> {
            if s.len() >= 3 {
                vec![]
            } else {
                (0..10).collect()
            }
        }
        fn apply(&self, s: &Vec<usize>, a: usize) -> Vec<usize> {
            let mut t = s.clone();
            t.push(a);
            t
        }
        fn reward(&self, s: &Vec<usize>) -> f64 {
            s.iter().sum::<usize>() as f64 / 27.0
        }
    }

    #[test]
    fn mcts_finds_best_digit() {
        let mut rng = StdRng::seed_from_u64(2);
        let mcts = Mcts::new(2000);
        let best = mcts.search(&DigitSum, &vec![], &mut rng);
        assert_eq!(best, Some(9), "mcts should choose the max digit");
    }

    /// Six actions, depth two, every outcome worth the same: nothing but
    /// the tie rule separates the children.
    struct Flat;
    impl MctsProblem for Flat {
        type State = usize;
        fn actions(&self, depth: &usize) -> Vec<usize> {
            if *depth >= 2 {
                vec![]
            } else {
                (0..6).collect()
            }
        }
        fn apply(&self, depth: &usize, _: usize) -> usize {
            depth + 1
        }
        fn reward(&self, _: &usize) -> f64 {
            1.0
        }
    }

    #[test]
    fn seeded_search_is_reproducible_under_ties() {
        let answers: std::collections::BTreeSet<Option<usize>> = (0..64)
            .map(|_| Mcts::new(64).search(&Flat, &0, &mut StdRng::seed_from_u64(9)))
            .collect();
        assert_eq!(answers.len(), 1, "one seed, several answers: {answers:?}");
    }

    #[test]
    fn mcts_terminal_state_returns_none() {
        let mut rng = StdRng::seed_from_u64(3);
        let mcts = Mcts::new(10);
        assert_eq!(mcts.search(&DigitSum, &vec![1, 2, 3], &mut rng), None);
    }
}
