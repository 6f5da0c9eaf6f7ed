package estimator_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"realhf/internal/core"
	"realhf/internal/dfg"
	"realhf/internal/estimator"
	"realhf/internal/hardware"
	"realhf/internal/mesh"
	"realhf/internal/model"
	"realhf/internal/runtime"
)

// handWiredPPO is the Fig. 4 builder as it was before dfg.BuildPPO became a
// call table lowered by dfg.Lower, kept as the reference the lowered graph
// is held to. It lacks the version edges ActorTrain(t)→ActorTrain(t+1) the
// lowering adds, as it adds for every role; the path ActorTrain(t) →
// ActorGen(t+1) → inferences → ActorTrain(t+1) already implies them. It
// lives here because holding the two graphs to the same schedules needs the
// estimator and the runtime.
func handWiredPPO(s dfg.Spec) *dfg.Graph {
	if s.MiniBatches == 0 {
		s.MiniBatches = 8
	}
	if s.Iterations == 0 {
		s.Iterations = 1
	}
	g := dfg.NewGraph("ppo")
	var prevActorTrain, prevCriticTrain *dfg.Node
	gen := dfg.Workload{Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen}
	inf := dfg.Workload{Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen}
	train := dfg.Workload{Batch: s.Batch, PromptLen: s.PromptLen, GenLen: s.GenLen, MiniBatches: s.MiniBatches}
	for t := 0; t < s.Iterations; t++ {
		actorGen := g.AddNode("ActorGen", dfg.Actor, dfg.Generate, t, gen)
		rewInf := g.AddNode("RewInf", dfg.Reward, dfg.Inference, t, inf)
		refInf := g.AddNode("RefInf", dfg.Ref, dfg.Inference, t, inf)
		criticInf := g.AddNode("CriticInf", dfg.Critic, dfg.Inference, t, inf)
		actorTrain := g.AddNode("ActorTrain", dfg.Actor, dfg.Train, t, train)
		criticTrain := g.AddNode("CriticTrain", dfg.Critic, dfg.Train, t, train)

		for _, infNode := range []*dfg.Node{rewInf, refInf, criticInf} {
			g.AddEdge(actorGen, infNode)
			g.AddEdge(infNode, actorTrain)
			g.AddEdge(infNode, criticTrain)
		}
		if prevActorTrain != nil {
			g.AddEdge(prevActorTrain, actorGen)
		}
		if prevCriticTrain != nil {
			g.AddEdge(prevCriticTrain, criticInf)
			g.AddEdge(prevCriticTrain, criticTrain)
		}
		prevActorTrain, prevCriticTrain = actorTrain, criticTrain
	}
	return g
}

func nodeIDs(ns []*dfg.Node) []int {
	ids := make([]int, len(ns))
	for i, n := range ns {
		ids[i] = n.ID
	}
	return ids
}

// TestLoweredPPOMatchesHandWired: at one iteration the lowered Fig. 4 table
// is the hand-wired graph node for node, with every parent and child list in
// the same order; at 2–4 iterations it differs only by the ActorTrain
// version edges, each appended last to both of its endpoints' lists.
func TestLoweredPPOMatchesHandWired(t *testing.T) {
	for iters := 1; iters <= 4; iters++ {
		s := dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: iters}
		got, want := dfg.BuildPPO(s), handWiredPPO(s)
		var trains []*dfg.Node
		for _, n := range want.Nodes {
			if n.Name == "ActorTrain" {
				trains = append(trains, n)
			}
		}
		for i := 1; i < len(trains); i++ {
			want.AddEdge(trains[i-1], trains[i])
		}
		if got.Algo != want.Algo || len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("iters=%d: lowered %q with %d nodes, want %q with %d", iters, got.Algo, len(got.Nodes), want.Algo, len(want.Nodes))
		}
		for i, n := range got.Nodes {
			w := want.Nodes[i]
			if *n != *w {
				t.Errorf("iters=%d: node %d is %+v, want %+v", iters, i, *n, *w)
			}
			if p, wp := nodeIDs(got.Parents(n)), nodeIDs(want.Parents(w)); !slices.Equal(p, wp) {
				t.Errorf("iters=%d: %s@%d parents %v, want %v", iters, n.Name, n.Iter, p, wp)
			}
			if c, wc := nodeIDs(got.Children(n)), nodeIDs(want.Children(w)); !slices.Equal(c, wc) {
				t.Errorf("iters=%d: %s@%d children %v, want %v", iters, n.Name, n.Iter, c, wc)
			}
		}
		if !slices.Equal(nodeIDs(got.Calls()), nodeIDs(want.Calls())) || !slices.Equal(nodeIDs(got.Homes()), nodeIDs(want.Homes())) {
			t.Errorf("iters=%d: calls %v homes %v, want %v and %v", iters,
				nodeIDs(got.Calls()), nodeIDs(got.Homes()), nodeIDs(want.Calls()), nodeIDs(want.Homes()))
		}
	}
}

// scheduled is one simulated timeline entry without its augmented node,
// whose dependency lists differ between the two graphs by construction.
type scheduled struct {
	label                string
	start, end, duration float64
}

func timeline(r *estimator.Result) []scheduled {
	out := make([]scheduled, len(r.Timeline))
	for i, sn := range r.Timeline {
		out[i] = scheduled{sn.Node.Label(), sn.Start, sn.End, sn.Duration}
	}
	return out
}

// TestLoweredPPOSchedulesLikeHandWired: the ActorTrain version edges the
// lowering adds move nothing. For random legal plans of the 2- and
// 3-iteration graphs, serial and overlapped, Evaluate's timeline and
// estimate, the session's Bound and runtime.Run's report agree bit for bit
// between the lowered and the hand-wired graph.
func TestLoweredPPOSchedulesLikeHandWired(t *testing.T) {
	models := core.PPOModels(model.LLaMA7B, model.LLaMA7B)
	for _, nodes := range []int{1, 2, 4} {
		hw := hardware.DefaultCluster(nodes)
		meshes := mesh.Enumerate(hw)
		for _, iters := range []int{2, 3} {
			s := dfg.Spec{Batch: 256, PromptLen: 512, GenLen: 512, Iterations: iters}
			lowered := core.NewPlan(hw, dfg.BuildPPO(s), models)
			ref := core.NewPlan(hw, handWiredPPO(s), models)
			rng := rand.New(rand.NewSource(int64(10*nodes + iters)))
			for _, overlap := range []bool{false, true} {
				e := estimator.NewOracle(hw, models, true)
				e.OverlapComm = overlap
				sessLowered, sessRef := e.NewSession(nil), e.NewSession(nil)
				for trial := 0; trial < 20; trial++ {
					name := fmt.Sprintf("%dn/iters=%d/overlap=%v/trial=%d", nodes, iters, overlap, trial)
					for _, n := range lowered.Graph.Calls() {
						a := randomAssignment(rng, lowered, meshes, n)
						lowered.Assign[n.Name], ref.Assign[n.Name] = a, a
					}
					got, err := e.Evaluate(lowered)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := e.Evaluate(ref)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got.TimeCost != want.TimeCost || got.Cost != want.Cost || got.MaxMem != want.MaxMem || got.OOM != want.OOM ||
						!maps.Equal(got.CallTimes, want.CallTimes) || !slices.Equal(timeline(got), timeline(want)) {
						t.Fatalf("%s: Evaluate differs: makespan %v, want %v", name, got.TimeCost, want.TimeCost)
					}
					lb, err := sessLowered.Bound(lowered)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if wlb, err := sessRef.Bound(ref); err != nil || lb != wlb {
						t.Fatalf("%s: Bound %v, want %v (err %v)", name, lb, wlb, err)
					}
					opts := runtime.Options{UseCUDAGraph: true, OverlapComm: overlap}
					run, err := runtime.Run(lowered, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantRun, err := runtime.Run(ref, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(run, wantRun) {
						t.Fatalf("%s: runtime.Run differs: makespan %v comm %v, want %v and %v",
							name, run.MakespanV, run.CommTimeV, wantRun.MakespanV, wantRun.CommTimeV)
					}
				}
			}
		}
	}
}
