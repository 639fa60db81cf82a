// vml: the verifiable machine-learning application of the paper's §5 —
// Machine-Learning-as-a-Service where every prediction ships with a
// proof that it was computed by the committed model (unmasked, so not
// zero-knowledge: see DESIGN.md §10).
//
// The demo uses a small CNN so the whole flow (commit → predict → prove →
// verify) runs end to end in seconds; it then reports the modelled
// VGG-16/CIFAR-10 performance of the paper's Table 11.
//
//	go run ./examples/vml
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"batchzk"
)

func main() {
	// --- Service provider side -----------------------------------------
	// Preprocessing (done once): train/load the model, commit to it.
	model := batchzk.TinyCNN(2024)
	service, err := batchzk.NewMLaaSService(model, 3)
	if err != nil {
		log.Fatal(err)
	}
	root := service.ModelRoot()
	fmt.Printf("service: model committed, Merkle root %x…\n", root[:8])

	// --- Customer side ---------------------------------------------------
	client := service.Client()

	// Customers send images; the provider predicts and proves.
	images := []*batchzk.Tensor{
		batchzk.RandImage(1, 8, 8, 101),
		batchzk.RandImage(1, 8, 8, 102),
		batchzk.RandImage(1, 8, 8, 103),
		batchzk.RandImage(1, 8, 8, 104),
	}
	start := time.Now()
	preds, err := service.HandleBatch(images)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	for i, p := range preds {
		if p.Err != nil {
			log.Fatalf("prediction %d: %v", i, p.Err)
		}
		if err := client.VerifyPrediction(images[i], &p); err != nil {
			log.Fatalf("prediction %d failed verification: %v", i, err)
		}
		fmt.Printf("query %d: class %d — proof verified against the committed model\n", i, p.Class)
	}
	fmt.Printf("served %d proven predictions in %v\n", len(preds), elapsed.Round(time.Millisecond))

	// A prediction with a tampered class must be rejected.
	bad := preds[0]
	bad.Class = (bad.Class + 1) % 10
	if err := client.VerifyPrediction(images[0], &bad); err != nil {
		fmt.Println("tampered prediction rejected:", err)
	} else {
		log.Fatal("tampered prediction accepted!")
	}

	// --- Paper-scale deployment (Table 11) -------------------------------
	gh200, err := batchzk.Device("GH200")
	if err != nil {
		log.Fatal(err)
	}
	table, err := batchzk.RunExperiment("table11", gh200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	table.Render(os.Stdout)
}
