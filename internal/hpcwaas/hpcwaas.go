// Package hpcwaas implements the HPC-Workflows-as-a-Service layer of
// the eFlows4HPC stack (paper §4.1, Figure 1): a workflow registry fed
// by developers, a Yorc-like deployer that walks the TOSCA topology to
// install software (via the Container Image Creation service) and move
// data (via the Data Logistics Service), and a REST Execution API
// (Frontend, over the execution store of internal/execstore) that lets
// final users "run the deployed workflow as a simple REST invocation".
package hpcwaas

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/dls"
	"repro/internal/imagebuilder"
	"repro/internal/tosca"
)

// AppFunc is the executable body of a registered workflow — the role
// the PyCOMPSs application plays on the HPC system. It receives the
// user's input parameters and returns result key/values.
type AppFunc func(params map[string]string) (map[string]string, error)

// Entry is one registry record: the workflow description (TOSCA
// topology) plus its executable.
type Entry struct {
	// Name identifies the workflow; Version distinguishes revisions.
	Name        string
	Version     string
	Description string
	// Topology is the deployment description consumed by the deployer.
	Topology *tosca.Topology
	// App is the orchestrated application.
	App AppFunc
}

// Registry is the eFlows4HPC workflow registry.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry)}
}

// Register validates and stores an entry; re-registering a name
// replaces it (a new version).
func (r *Registry) Register(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("hpcwaas: workflow needs a name")
	}
	if e.App == nil {
		return fmt.Errorf("hpcwaas: workflow %q has no application", e.Name)
	}
	if e.Topology == nil {
		return fmt.Errorf("hpcwaas: workflow %q has no topology", e.Name)
	}
	if err := e.Topology.Validate(); err != nil {
		return fmt.Errorf("hpcwaas: workflow %q: %w", e.Name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := e
	r.entries[e.Name] = &cp
	return nil
}

// Lookup fetches an entry.
func (r *Registry) Lookup(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// List returns entry names, sorted.
func (r *Registry) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DeploymentStatus tracks the lifecycle of one deployment.
type DeploymentStatus string

// Deployment states.
const (
	StatusDeployed   DeploymentStatus = "DEPLOYED"
	StatusUndeployed DeploymentStatus = "UNDEPLOYED"
	StatusFailed     DeploymentStatus = "FAILED"
)

// Deployment is the record of one topology instantiation on a target.
type Deployment struct {
	ID       string
	Workflow string
	Target   string
	Status   DeploymentStatus
	// Log records the lifecycle operations in execution order.
	Log []string
	// Images lists the container images built for the deployment.
	Images []*imagebuilder.Image
}

// Deployer walks TOSCA topologies and materializes them, playing the
// Yorc role.
type Deployer struct {
	// Builder is the Container Image Creation service.
	Builder *imagebuilder.Builder
	// DLS is the Data Logistics Service for data nodes.
	DLS *dls.Service
	// Platform is the compilation target of the destination machine.
	Platform imagebuilder.Platform
	// Pipelines maps pipeline names (referenced by data-node properties)
	// to DLS pipelines executed at deployment time.
	Pipelines map[string]dls.Pipeline

	mu     sync.Mutex
	nextID int
	deps   map[string]*Deployment
}

// NewDeployer wires a deployer; nil services get fresh defaults.
func NewDeployer(b *imagebuilder.Builder, d *dls.Service, platform imagebuilder.Platform) *Deployer {
	if b == nil {
		b = imagebuilder.NewBuilder(nil)
	}
	if d == nil {
		d = dls.NewService(nil)
	}
	if platform.Arch == "" {
		platform = imagebuilder.Platform{Arch: "x86_64", MPI: "openmpi4"}
	}
	return &Deployer{
		Builder:   b,
		DLS:       d,
		Platform:  platform,
		Pipelines: make(map[string]dls.Pipeline),
		deps:      make(map[string]*Deployment),
	}
}

// Deploy instantiates the entry's topology on the named target,
// executing node lifecycles in dependency order. It returns a snapshot
// of the deployment record.
func (d *Deployer) Deploy(e *Entry, target string) (Deployment, error) {
	order, err := e.Topology.DeployOrder()
	if err != nil {
		return Deployment{}, err
	}
	d.mu.Lock()
	d.nextID++
	dep := &Deployment{
		ID:       fmt.Sprintf("dep-%d", d.nextID),
		Workflow: e.Name,
		Target:   target,
		Status:   StatusDeployed,
	}
	d.deps[dep.ID] = dep
	d.mu.Unlock()

	fail := func(err error) (Deployment, error) {
		d.mu.Lock()
		dep.Status = StatusFailed
		dep.Log = append(dep.Log, "ERROR: "+err.Error())
		d.mu.Unlock()
		return d.snapshot(dep), err
	}
	logf := func(format string, args ...any) {
		d.mu.Lock()
		dep.Log = append(dep.Log, fmt.Sprintf(format, args...))
		d.mu.Unlock()
	}

	for _, name := range order {
		n := e.Topology.Node(name)
		switch n.Type {
		case tosca.TypeCompute:
			logf("allocate %s on %s (scheduler=%s)", n.Name, target, n.Properties["scheduler"])
		case tosca.TypeSoftware:
			logf("install %s: package %s", n.Name, n.Properties["package"])
		case tosca.TypeContainer:
			pkgs := strings.Split(n.Properties["packages"], ",")
			for i := range pkgs {
				pkgs[i] = strings.TrimSpace(pkgs[i])
			}
			img, err := d.Builder.Build(imagebuilder.Request{
				Name:     n.Properties["image"],
				Packages: pkgs,
				Platform: d.Platform,
			})
			if err != nil {
				return fail(fmt.Errorf("hpcwaas: build image for %s: %w", n.Name, err))
			}
			d.mu.Lock()
			dep.Images = append(dep.Images, img)
			d.mu.Unlock()
			logf("image %s → %s (cached=%v)", n.Name, img.Digest[:19], img.Cached)
		case tosca.TypeData:
			pname := n.Properties["pipeline"]
			if pname == "" {
				logf("data %s: no pipeline, skipping", n.Name)
				break
			}
			p, ok := d.Pipelines[pname]
			if !ok {
				return fail(fmt.Errorf("hpcwaas: data node %s references unknown pipeline %q", n.Name, pname))
			}
			if err := d.DLS.Run(p); err != nil {
				return fail(fmt.Errorf("hpcwaas: pipeline %s: %w", pname, err))
			}
			logf("data %s: pipeline %s complete", n.Name, pname)
		case tosca.TypeWorkflow:
			logf("publish %s to execution API", n.Name)
		default:
			logf("node %s (%s): generic create", n.Name, n.Type)
		}
	}
	return d.snapshot(dep), nil
}

// Undeploy tears a deployment down in reverse order.
func (d *Deployer) Undeploy(id string, top *tosca.Topology) error {
	d.mu.Lock()
	dep, ok := d.deps[id]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("hpcwaas: unknown deployment %q", id)
	}
	order, err := top.UndeployOrder()
	if err != nil {
		return err
	}
	d.mu.Lock()
	for _, n := range order {
		dep.Log = append(dep.Log, "remove "+n)
	}
	dep.Status = StatusUndeployed
	d.mu.Unlock()
	return nil
}

// Get fetches a snapshot of a deployment record.
func (d *Deployer) Get(id string) (Deployment, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dep, ok := d.deps[id]
	if !ok {
		return Deployment{}, false
	}
	out := *dep
	out.Log = append([]string(nil), dep.Log...)
	out.Images = append([]*imagebuilder.Image(nil), dep.Images...)
	return out, true
}

// snapshot returns a race-free copy of a live deployment. Caller must
// not hold d.mu.
func (d *Deployer) snapshot(dep *Deployment) Deployment {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := *dep
	out.Log = append([]string(nil), dep.Log...)
	out.Images = append([]*imagebuilder.Image(nil), dep.Images...)
	return out
}

// ActiveFor reports whether the workflow has a live deployment.
func (d *Deployer) ActiveFor(workflow string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, dep := range d.deps {
		if dep.Workflow == workflow && dep.Status == StatusDeployed {
			return true
		}
	}
	return false
}
