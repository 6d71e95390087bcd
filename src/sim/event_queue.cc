#include "sim/event_queue.hh"

#include <cassert>

namespace halsim {

Event::~Event()
{
    // A scheduled event must be descheduled before destruction;
    // otherwise the queue would fire a dangling pointer later.
    assert(!scheduled_ && "destroying a scheduled Event");
}

/**
 * One-shot wrapper used by scheduleFn(). Fired wrappers return to the
 * queue's freelist, so steady-state one-shot scheduling allocates
 * nothing: the wrapper is recycled and small captures live in the
 * UniqueFn's inline storage.
 */
class EventQueue::OneShot : public Event
{
  public:
    explicit OneShot(EventQueue &q) : q_(q) {}

    void arm(UniqueFn fn) { fn_ = std::move(fn); }

    void
    execute() override
    {
        // Release the wrapper before running the callable so a
        // nested scheduleFn can reuse it immediately; the callable
        // itself is already safe on the stack.
        UniqueFn fn = std::move(fn_);
        q_.releaseOneShot(this);
        fn();
    }

  private:
    EventQueue &q_;
    UniqueFn fn_;
};

EventQueue::~EventQueue()
{
    // A root vacated by a bare step() still holds the executed
    // event's entry; fill it first. Then orphan the still-scheduled
    // events so their destructors don't assert; delete owned one-shot
    // wrappers.
    fillHole();
    for (Entry &e : heap_) {
        e.ev->scheduled_ = false;
        if (dynamic_cast<OneShot *>(e.ev) != nullptr)
            delete e.ev;
    }
    for (OneShot *os : pool_)
        delete os;
}

// halint: hotpath
void
EventQueue::schedule(Event *ev, Tick when)
{
    assert(ev != nullptr);
    assert(!ev->scheduled_ && "event already scheduled");
    assert(when >= now_ && "scheduling into the past");
    if (when < now_) {
        // Release builds clamp instead of time-traveling: the event
        // runs immediately-next and the counter records the bug.
        ++pastClamps_;
        when = now_;
    }

    ev->when_ = when;
    ev->scheduled_ = true;
    heapPush(Entry{when, ++seq_, ev});
}

// halint: hotpath
void
EventQueue::scheduleKeyed(Event *ev, Tick when, std::uint64_t key)
{
    assert(ev != nullptr);
    assert(!ev->scheduled_ && "event already scheduled");
    assert(when >= now_ && "scheduling into the past");
    if (when < now_) {
        ++pastClamps_;
        when = now_;
    }

    ev->when_ = when;
    ev->scheduled_ = true;
    heapPush(Entry{when, key, ev});
}

void
EventQueue::deschedule(Event *ev)
{
    assert(ev != nullptr);
    if (!ev->scheduled_)
        return;
    // The heap must hold only scheduled entries before one is moved:
    // fill a vacant root first, so its stale entry can be neither the
    // last entry moved below nor a parent a sift compares against.
    fillHole();
    const std::size_t idx = ev->heapIndex_;
    assert(idx < heap_.size() && heap_[idx].ev == ev &&
           "heap index out of sync");
    ev->scheduled_ = false;
    ++deschedules_;
    // Move the last entry into the freed slot and restore the heap
    // around it: it may order before the slot's parent (it came from
    // another subtree) or after the slot's children.
    const Entry last = heap_.back();
    heap_.pop_back();
    if (idx == heap_.size())
        return;
    if (idx > 0 && heap_[(idx - 1) / 2] > last)
        siftUp(idx, last);
    else
        siftDown(idx, last);
}

void
EventQueue::setPoolingEnabled(bool on)
{
    pooling_ = on;
    if (!pooling_) {
        for (OneShot *os : pool_)
            delete os;
        pool_.clear();
    }
}

// halint: hotpath
void
EventQueue::releaseOneShot(OneShot *os)
{
    if (pooling_)
        // halint: allow(HAL-W004) freelist push reuses retained
        pool_.push_back(os); // capacity after warmup (DESIGN.md §8)
    else
        delete os;
}

// halint: hotpath
void
EventQueue::scheduleFn(UniqueFn fn, Tick when)
{
    OneShot *os;
    if (!pool_.empty()) {
        os = pool_.back();
        pool_.pop_back();
    } else {
        // halint: allow(HAL-W004) pool-miss cold path; steady state
        os = new OneShot(*this); // is served from the freelist
    }
    os->arm(std::move(fn));
    schedule(os, when);
}

// halint: hotpath
bool
EventQueue::step()
{
    if (!settleRoot())
        return false;
    runRoot();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    const std::uint64_t before = executed_;
    while (settleRoot()) {
        if (heap_.front().when > until) {
            if (until != kTickNever)
                now_ = until;
            return executed_ - before;
        }
        runRoot();
    }
    if (until != kTickNever && until > now_)
        now_ = until;
    return executed_ - before;
}

// halint: hotpath
bool
EventQueue::settleRoot()
{
    fillHole();
    return !heap_.empty();
}

// halint: hotpath
void
EventQueue::runRoot()
{
    // The root stays vacant while the event runs, so the push most
    // events make from execute() (a channel re-arming its head, a
    // core arming its completion) lands in the root with one
    // sift-down.
    const Entry top = heap_.front();
    hole_ = true;
    assert(top.when >= now_);
    now_ = top.when;
    top.ev->scheduled_ = false;
    ++executed_;
    top.ev->execute();
}

// halint: hotpath
void
EventQueue::heapPush(Entry e)
{
    if (hole_) {
        hole_ = false;
        siftDown(0, e);
        return;
    }
    // halint: allow(HAL-W004) amortized heap growth; the heap holds
    heap_.push_back(e); // only scheduled events, so capacity settles
    siftUp(heap_.size() - 1, e);
}

// halint: hotpath
void
EventQueue::fillHole()
{
    if (!hole_)
        return;
    hole_ = false;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0, last);
}

void
EventQueue::siftUp(std::size_t i, Entry e)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(heap_[parent] > e))
            break;
        heap_[i] = heap_[parent];
        setIndex(i);
        i = parent;
    }
    heap_[i] = e;
    setIndex(i);
}

// halint: hotpath
void
EventQueue::siftDown(std::size_t i, Entry e)
{
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && heap_[c] > heap_[c + 1])
            ++c;   // right child is earlier
        if (!(e > heap_[c]))
            break;
        heap_[i] = heap_[c];
        setIndex(i);
        i = c;
    }
    heap_[i] = e;
    setIndex(i);
}

} // namespace halsim
